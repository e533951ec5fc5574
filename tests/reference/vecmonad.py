"""References for ``quantakit.vecmonad``: earlier implementations of what
the module does now, each kept verbatim apart from its name, for tests to
compare the current code with."""
import functools
from collections.abc import Iterable

import numpy as np

from quantakit.relalg import (
    FinBasis, check_label, coproduct_basis, pair_label, product_basis, split_pair, tag_left, tag_right, untag,
)
from quantakit.vecmonad import PRUNE_EPS, AmpVec, CMatrix, KleisliOp, ret


# ---------------------------------------------------------------------------
# Reference: the amplitude printer and reader, verbatim copies of
# ``vecmonad._fmt_amp`` and ``vecmonad._parse_amp``, so that the printers
# and the parser below do not go through the code they check.

def _fmt_amp(a: complex) -> str:
    re_part = 0.0 if a.real == 0 else a.real
    im_part = 0.0 if a.imag == 0 else a.imag
    return f"{re_part:.12g}{im_part:+.12g}i"


def _parse_amp(text: str) -> complex:
    body = text[:-1] if text.endswith("i") else ""
    for i in range(len(body) - 1, 0, -1):
        if body[i] in "+-" and body[i - 1] not in "eE":
            try:
                return complex(float(body[:i]), float(body[i:]))
            except ValueError:
                break
    raise ValueError(f"malformed amplitude: {text!r}")


# ---------------------------------------------------------------------------
# Reference: the printers before ``format_matrix`` formatted each distinct
# cell of the whole matrix once and ``format_state`` kept its line ends in a
# dict, both formatting through a ``functools.cache`` built per call; kept
# verbatim apart from the names and from reading a ket through ``items()``.
# Only the tests against ``ref_format_matrix`` kill the mutant that lets
# ``format_matrix`` merge NaN cells (``equal_nan=True``), so that NaN
# cells of different texts print as one.

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
        return "".join([f"{x}{end(a)}" for x, a in v.items()])
    return "".join([f"{x}{end(a)}" for x in basis if abs(a := v[x]) >= PRUNE_EPS])


# ---------------------------------------------------------------------------
# References: the label-level structural maps that vecmonad had before it
# built them from basis indices, kept verbatim apart from the names.  Only
# the test against them kills the mutant that builds ``assoc_inv_op``'s
# source as ((y,x),z), which the library cannot show: it calls the map
# only on three bit bases.

def ref_xl_op(a: FinBasis, b: FinBasis, c: FinBasis) -> KleisliOp:
    """Permutation (x,(y,z)) -> (y,(x,z)) swapping the first two of three."""

    def apply(label: str) -> AmpVec:
        x, yz = split_pair(label)
        y, z = split_pair(yz)
        return ret(pair_label(y, pair_label(x, z)))

    return KleisliOp(product_basis(a, product_basis(b, c)), apply)


def ref_assoc_op(a: FinBasis, b: FinBasis, c: FinBasis) -> KleisliOp:
    """Associator (x,(y,z)) -> ((x,y),z)."""

    def apply(label: str) -> AmpVec:
        x, yz = split_pair(label)
        y, z = split_pair(yz)
        return ret(pair_label(pair_label(x, y), z))

    return KleisliOp(product_basis(a, product_basis(b, c)), apply)


def ref_assoc_inv_op(a: FinBasis, b: FinBasis, c: FinBasis) -> KleisliOp:
    """Inverse associator ((x,y),z) -> (x,(y,z))."""

    def apply(label: str) -> AmpVec:
        xy, z = split_pair(label)
        x, y = split_pair(xy)
        return ret(pair_label(x, pair_label(y, z)))

    return KleisliOp(product_basis(product_basis(a, b), c), apply)


# ---------------------------------------------------------------------------
# Reference: ``bind`` before its result took the summed-ket path, kept
# verbatim apart from the name.  Only the test against it kills the mutant
# of ``bind`` that reads v's items in reverse, which lists the result's
# items in another order: every other test compares kets by value.

def ref_bind(v: AmpVec, f: KleisliOp) -> AmpVec:
    """Linear extension of f over the support of v."""
    acc: dict[str, complex] = {}
    for label, a in v.items():
        if label not in f.src:
            raise KeyError(f"label {label!r} outside operation source basis")
        for out, b in f.apply(label).items():
            acc[out] = acc.get(out, 0j) + a * b
    return AmpVec(acc)


# ---------------------------------------------------------------------------
# References: ``add``, ``tensor`` and ``direct_sum`` when each built its ket
# through the checked constructor, kept verbatim apart from the names.  Only
# the test against them sees the order of a result's items, so only it
# kills three mutants: ``add`` listing v's items first, ``tensor`` varying
# g's items slowest, and ``direct_sum`` reversing its left block's items.

def ref_add(u: AmpVec, v: AmpVec) -> AmpVec:
    out = dict(u.items())
    for k, a in v.items():
        out[k] = out.get(k, 0j) + a
    return AmpVec(out)


def ref_tensor(f: KleisliOp, g: KleisliOp) -> KleisliOp:
    """Pairwise tensor on the row-major product basis."""
    src = product_basis(f.src, g.src)

    def apply(label: str) -> AmpVec:
        a, b = split_pair(label)
        fa, gb = f.apply(a), g.apply(b)
        return AmpVec(
            {pair_label(x, y): p * q for x, p in fa.items() for y, q in gb.items()}
        )

    return KleisliOp(src, apply)


def ref_direct_sum(f: KleisliOp, g: KleisliOp) -> KleisliOp:
    """Blockwise action on the tagged coproduct basis."""
    src = coproduct_basis(f.src, g.src)

    def apply(label: str) -> AmpVec:
        side, x = untag(label)
        if side == 0:
            return AmpVec({tag_left(k): a for k, a in f.apply(x).items()})
        return AmpVec({tag_right(k): a for k, a in g.apply(x).items()})

    return KleisliOp(src, apply)


# ---------------------------------------------------------------------------
# Reference: ``parse_matrix`` before its fast row, kept verbatim apart from
# the name and from reading each cell through the copy of ``_parse_amp``.
# Only the tests against it kill these mutants of ``vecmonad``: the cell
# count test ``!=`` made ``>``; blank lines kept in ``parse_matrix``;
# ``{label}`` for ``{label!r}`` in the cell-count text; and ``"e"`` for
# ``"eE"`` in ``_parse_amp``, which refuses a capital-E exponent.

def ref_parse_matrix(text: str) -> CMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix dump")
    src = FinBasis(tuple(check_label(x) for x in lines[0].split()))
    amp = functools.cache(_parse_amp)  # a dump repeats few distinct cells
    tgt_labels: list[str] = []
    rows = []
    for ln in lines[1:]:
        label, _, rest = ln.partition(": ")
        cells = rest.split()
        if len(cells) != len(src):
            raise ValueError(f"row {label!r} has {len(cells)} cells, expected {len(src)}")
        tgt_labels.append(check_label(label))
        rows.append([amp(c) for c in cells])
    return CMatrix(src, FinBasis(tuple(tgt_labels)), np.array(rows, dtype=np.complex128))
