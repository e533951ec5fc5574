"""Gate zoo and control combinators over the vector-space monad.

Classical tables are lifted with ``vecmonad.lift``; Hadamard and T are
the only strictly quantum primitives.  Composite gates are Kleisli
compositions of these: ``bell`` is the lifted CNOT after Hadamard on the
first bit, ``unbell`` the same two arrows in the other order, and
``alice`` wires them together with the associators of ``vecmonad``.  The
quantum choice combinator routes the payload through a branch selected by
the control bit without measuring it (control 0 takes the first branch,
control 1 the second), and the McCarthy conditional preprocesses the
control and then applies its if-branch on control 1.  A ``GateLibrary``
checks its gates and records their unitarity gaps and fold steps when it
is built and never changes, so ``default_library()`` is built once per
process.
"""
from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Mapping

from .quanta import Step, step_shape
from .relalg import BIT, pair_label, product_basis, split_pair
from .vecmonad import (
    DEFAULT_TOL,
    AmpVec,
    CMatrix,
    KleisliOp,
    assoc_inv_op,
    assoc_op,
    kleisli,
    lift,
    materialize,
    ret,
    ret_op,
    tensor,
    unitarity_gap,
)

__all__ = [
    "GateLibrary",
    "NOT_TABLE",
    "alice",
    "bell",
    "ccnot_table",
    "choice",
    "cnot_table",
    "cond",
    "default_library",
    "had",
    "lift",
    "mccarthy",
    "tgate",
    "unbell",
    "xor_table",
]

_SQRT2_INV = 1.0 / math.sqrt(2.0)

NOT_TABLE = {"0": "1", "1": "0"}


def had() -> KleisliOp:
    """Hadamard: equal-weight superposition, sign flip on |1>."""

    def apply(a: str) -> AmpVec:
        if a == "0":
            return AmpVec({"0": _SQRT2_INV, "1": _SQRT2_INV})
        return AmpVec({"0": _SQRT2_INV, "1": -_SQRT2_INV})

    return KleisliOp(BIT, apply)


def tgate() -> KleisliOp:
    """Phase gate diag(1, e^{i pi/4})."""
    phase = cmath.exp(1j * math.pi / 4)
    return KleisliOp(BIT, lambda a: ret("0") if a == "0" else AmpVec({"1": phase}))


def cnot_table() -> dict[str, str]:
    """(a,b) -> (a, a xor b) over the 2-bit pair basis."""
    xor = xor_table()
    return {pair_label(a, b): pair_label(a, xor[pair_label(a, b)]) for a in BIT for b in BIT}


def xor_table() -> dict[str, str]:
    return {
        pair_label(a, b): "1" if a != b else "0" for a in BIT for b in BIT
    }


def ccnot_table() -> dict[str, str]:
    """((a,b),c) -> ((a,b), (a and b) xor c)."""
    out = {}
    for a in BIT:
        for b in BIT:
            ab = pair_label(a, b)
            for c in BIT:
                flipped = NOT_TABLE[c] if a == b == "1" else c
                out[pair_label(ab, c)] = pair_label(ab, flipped)
    return out


def bell() -> KleisliOp:
    """Hadamard on the first bit, then the controlled negation."""
    return kleisli(lift(cnot_table(), product_basis(BIT, BIT)), tensor(had(), ret_op(BIT)))


def unbell() -> KleisliOp:
    """Inverse block: controlled negation first, then Hadamard on the control."""
    return kleisli(tensor(had(), ret_op(BIT)), lift(cnot_table(), product_basis(BIT, BIT)))


def alice() -> KleisliOp:
    """Entangle the last two bits, then un-entangle the first two:
    assoc_inv . (unbell x id) . assoc . (id x bell) on (c,(a,b))."""
    first = kleisli(assoc_op(BIT, BIT, BIT), tensor(ret_op(BIT), bell()))
    return kleisli(assoc_inv_op(BIT, BIT, BIT), kleisli(tensor(unbell(), ret_op(BIT)), first))


def choice(f: KleisliOp, g: KleisliOp) -> KleisliOp:
    """Quantum choice f <> g: control 0 routes the payload through f,
    control 1 through g, the control bit passing through untouched."""
    if f.src != g.src:
        raise ValueError("choice branches must share their payload basis")
    src = product_basis(BIT, f.src)

    def apply(label: str) -> AmpVec:
        a, b = split_pair(label)
        branch = f if a == "0" else g
        return AmpVec._trusted({pair_label(a, k): amp for k, amp in branch.apply(b).items()})

    return KleisliOp(src, apply)


def mccarthy(p: KleisliOp, f: KleisliOp, g: KleisliOp) -> KleisliOp:
    """Guarded choice: apply p to the control, then f on 1 and g on 0."""
    selected = choice(g, f)
    return kleisli(selected, tensor(p, ret_op(f.src)))


def cond() -> KleisliOp:
    """Hadamard the control; negate on 1, Hadamard on 0."""
    return mccarthy(had(), lift(NOT_TABLE, BIT), had())


class GateLibrary:
    """Named operations, each checked to be unitary when the library is
    built; it records the matrix it checked, its unitarity gap and, for a
    gate on an (item, payload) pair basis, the ``quanta.Step`` that the fold
    takes by index, and cannot change.  An unknown name is refused here,
    with a ``KeyError`` that lists the library's names."""

    def __init__(self, ops: Mapping[str, KleisliOp]) -> None:
        self._ops: dict[str, tuple[KleisliOp, CMatrix, float, Step | None]] = {}
        for name, op in ops.items():
            m = materialize(op, op.src)
            gap = unitarity_gap(m)
            if not gap <= DEFAULT_TOL:
                raise ValueError(f"gate {name!r} does not materialize to a unitary matrix")
            try:
                step = Step(m, *step_shape(op), name)
            except ValueError:
                step = None
            self._ops[name] = (op, m, gap, step)

    def names(self) -> tuple[str, ...]:
        return tuple(self._ops)

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def op(self, name: str) -> KleisliOp:
        return self._get(name)[0]

    def matrix(self, name: str) -> CMatrix:
        return self._get(name)[1]

    def unitarity_gap(self, name: str) -> float:
        """``vecmonad.unitarity_gap`` of the gate's matrix, measured once, when
        the library was built: the gate is unitary at ``tol`` when this is at
        most ``tol``."""
        return self._get(name)[2]

    def step(self, name: str) -> Step:
        if (step := self._get(name)[3]) is None:
            raise ValueError(f"gate {name!r} does not act on an (item,payload) pair basis")
        return step

    def _get(self, name: str) -> tuple[KleisliOp, CMatrix, float, Step | None]:
        try:
            return self._ops[name]
        except KeyError:
            raise KeyError(f"unknown gate {name!r} (have: {', '.join(self._ops)})") from None


@functools.cache
def default_library() -> GateLibrary:
    bb = product_basis(BIT, BIT)
    return GateLibrary({
        "x": lift(NOT_TABLE, BIT),
        "h": had(),
        "t": tgate(),
        "id": ret_op(bb),
        "cnot": lift(cnot_table(), bb),
        "ccnot": lift(ccnot_table(), product_basis(bb, BIT)),
        "bell": bell(),
        "unbell": unbell(),
        "alice": alice(),
        "cond": cond(),
    })
