"""References for ``quantakit.vecmonad``: earlier implementations of what
the module does now, each kept verbatim apart from its name, for tests to
compare the current code with."""
import functools
import itertools
from collections.abc import Iterable

from quantakit.vecmonad import PRUNE_EPS, AmpVec, CMatrix


# ---------------------------------------------------------------------------
# Reference: the amplitude printer, a verbatim copy of ``vecmonad._fmt_amp``,
# so that the printers below do not print through the code they check.

def _fmt_amp(a: complex) -> str:
    re_part = 0.0 if a.real == 0 else a.real
    im_part = 0.0 if a.imag == 0 else a.imag
    return f"{re_part:.12g}{im_part:+.12g}i"


# ---------------------------------------------------------------------------
# Reference: the printers before ``format_matrix`` formatted each distinct
# cell of the whole matrix once and ``format_state`` kept its line ends in a
# dict, both formatting through a ``functools.cache`` built per call.

def ref_format_matrix(m: CMatrix) -> str:
    """Header of column labels, then one ``label: amps...`` line per row.
    Each distinct amplitude is formatted once per call."""
    amp = functools.cache(_fmt_amp)  # a fold matrix repeats few distinct cells
    lines = [" ".join(m.src.labels)]
    for label, row in zip(m.tgt.labels, m.entries.tolist()):
        lines.append(f"{label}: {' '.join(map(amp, row))}")
    return "\n".join(lines) + "\n"


def ref_format_state(v: AmpVec, basis: Iterable[str] | None = None) -> str:
    """Nonzero amplitudes, one ``label: amp`` line, in basis order, or with
    no basis in the ket's own item order.  Each amplitude is read once, and
    each distinct one formatted once per call.  In its own order a ket is
    printed as it stands, with no lookup and no test per label: its
    constructor left no label twice and no amplitude below ``PRUNE_EPS``."""
    end = functools.cache(lambda a: f": {_fmt_amp(a)}\n")  # a fold's ket repeats few distinct amplitudes
    if basis is None:
        amps = v._amps
        return "".join(itertools.chain.from_iterable(zip(amps, map(end, amps.values()))))
    return "".join([f"{x}{end(a)}" for x in basis if abs(a := v[x]) >= PRUNE_EPS])
