"""quantakit: reversible-by-construction quantum folds.

Boolean relation algebra for reversibility analysis, a sparse
vector-space monad for simulating quantum operations, structural quantum
folds over truncated list bases, and a back end that compiles the
resulting permutations to Toffoli circuits exported as OpenQASM 2.0.

``gates``, ``quanta``, ``relalg`` and ``vecmonad`` load with the package.
``checks`` and ``circuitgen`` load on first use (``quantakit.checks``,
``from quantakit import circuitgen`` or ``import quantakit.circuitgen``),
so that a program that folds and prints does not pay for compiling them.
"""
import importlib

from . import gates, quanta, relalg, vecmonad
from .relalg import BIT, FinBasis, MonoidSpec, Rel
from .vecmonad import AmpVec, CMatrix, KleisliOp

__all__ = [
    "AmpVec",
    "BIT",
    "CMatrix",
    "FinBasis",
    "KleisliOp",
    "MonoidSpec",
    "Rel",
    "checks",
    "circuitgen",
    "gates",
    "quanta",
    "relalg",
    "vecmonad",
]

__version__ = "0.1.0"

_ON_FIRST_USE = ("checks", "circuitgen")


def __getattr__(name: str):
    # Importing the submodule binds it on the package, so this runs once per name.
    if name in _ON_FIRST_USE:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_ON_FIRST_USE})
