"""Finite-support complex amplitude vectors and the vector-space monad.

A ket is a sparse mapping from basis labels to complex amplitudes; an
operation is a function from basis labels to kets (a Kleisli arrow),
which materializes column by column into a typed complex matrix.  Monadic
bind is linear extension, Kleisli composition is matrix product, and the
tensor of two arrows materializes to the Kronecker product.  Every
classical step is a function followed by ``ret`` (``lift``), including
the structural isomorphisms of product bases: these are row-major, so
``assoc_op`` and ``assoc_inv_op`` keep each basis index and ``xl_op``
transposes the first two axes of the index grid.

One rule covers every value the module builds: the public ``AmpVec(...)``
and ``CMatrix(...)`` constructors check what they are given, and a value
the library computes from values it computed or checked itself skips the
checks its construction already guarantees.

A ket the library computes goes through ``AmpVec._trusted``.  It is handed
a dict of Python complex amplitudes, so the constructor would find no
repeated label and ``complex()`` would change nothing; what is left is
finiteness, the prune epsilon and the sign of zero.  One finiteness test
on the total stands for the per-entry test, since a NaN or infinite
amplitude makes the total non-finite; one pass drops what is below
``PRUNE_EPS`` and adds ``0j``, so a -0.0 part prints as +0.0; and a
non-finite total or an overflowing magnitude goes to the constructor,
which names it.  These kets take it:

- ``ret``'s unit ket, one label at amplitude 1;
- ``bind``'s and ``add``'s sums of the amplitudes of kets;
- ``from_matrix``'s column kets, a column of a checked matrix read out
  through ``tolist`` over the distinct labels of its target basis (a NaN
  or infinite cell is named when its column is first applied);
- ``tensor``'s products of two kets' amplitudes, and the tagged or paired
  kets of ``direct_sum`` and ``gates.choice``, each amplitude taken from a
  ket as it stands.

``scale`` multiplies by the caller's number, of any numeric type, so its
ket stays on the checked constructor.

``bind``, ``add``, ``vec_equal`` and ``materialize`` read each ket's store
and each basis's index dict directly, with no method call per entry.
``CMatrix`` is ``relalg._TypedMatrix`` with a complex128 dtype, so it
shares ``Rel``'s checked constructor and ``_trusted``.  ``matmul``,
``kron``, ``dagger``, ``materialize`` and ``identity_matrix`` go through
``_trusted``: each builds a fresh complex matrix whose shape follows from
checked operands or from its bases.
``from_matrix`` builds each column's ket once, on first use, and returns
that immutable ket on every later call.  A ket computed as an array, as
the fold's is, enters through the constructor's array form: NumPy checks
the whole array at once for what the per-entry loop checks one amplitude
at a time, and any doubt goes to that loop.  ``format_state`` with no
basis prints a ket in its own order, without looking up or re-testing
each label, since its constructor guarantees both.  Both printers format
each distinct amplitude once per call.
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .relalg import FinBasis, _TypedMatrix, check_label, coproduct_basis, pair_label, product_basis, split_pair, tag_left, tag_right, untag

__all__ = [
    "DEFAULT_TOL",
    "PRUNE_EPS",
    "AmpVec",
    "CMatrix",
    "KleisliOp",
    "add",
    "assoc_inv_op",
    "assoc_op",
    "bind",
    "dagger",
    "direct_sum",
    "format_matrix",
    "format_state",
    "from_matrix",
    "identity_matrix",
    "is_unitary",
    "kleisli",
    "kron",
    "lift",
    "materialize",
    "matmul",
    "norm",
    "parse_matrix",
    "ret",
    "ret_op",
    "scale",
    "tensor",
    "unitarity_gap",
    "vec_equal",
    "xl_op",
]

PRUNE_EPS = 1e-12
DEFAULT_TOL = 1e-9


class AmpVec:
    """Finite-support ket: basis label -> complex amplitude.

    Entries with magnitude below ``PRUNE_EPS`` are dropped at construction;
    the value is immutable afterwards.  ``AmpVec(labels, values)`` is the
    array form, for a sequence of labels and a complex128 array of their
    amplitudes: it builds what ``AmpVec(zip(labels, values.tolist()))``
    builds, checking the whole array at once, and leaves any array it
    cannot clear to that per-entry loop, which names the fault.  An array
    shorter than ``_BULK_MIN`` goes to the loop directly.
    """

    __slots__ = ("_amps",)

    def __init__(
        self,
        amps: Mapping[str, complex] | Iterable[tuple[str, complex]] | Sequence[str] = (),
        values: np.ndarray | None = None,
    ):
        if values is not None:  # the array form: amps holds the labels
            if not (isinstance(values, np.ndarray) and values.dtype == np.complex128
                    and values.shape == (len(amps),)):
                raise ValueError("the array form takes one complex128 amplitude per label")
            bulk = _bulk_store(amps, values) if len(values) >= _BULK_MIN else None
            if bulk is not None:
                self._amps = bulk
                return
            amps = zip(amps, values.tolist())  # the loop below names the fault
        items = amps.items() if isinstance(amps, Mapping) else amps
        store: dict[str, complex] = {}
        repeated = False
        try:
            for label, a in items:
                a = complex(a)
                if not cmath.isfinite(a):
                    raise ValueError(f"non-finite amplitude at {label!r}")
                if abs(a) >= PRUNE_EPS:
                    if label in store:
                        store[label] += a
                        repeated = True
                    else:
                        store[label] = 0j + a  # turns a -0.0 part into the +0.0 that JSON output prints
        except OverflowError as exc:  # abs() of a finite amplitude, or complex() of a huge int
            if exc.__traceback__.tb_next is not None:  # raised in the caller's own iterator or number
                raise
            raise ValueError(f"amplitude magnitude overflows at {label!r}") from None
        # Only a sum over a repeated label can fall below the epsilon or
        # leave the finite range; one more pass over the sums checks both.
        self._amps = AmpVec(store)._amps if repeated else store

    @classmethod
    def _trusted(cls, amps: dict[str, complex]) -> AmpVec:
        """``AmpVec(amps)`` for a dict of Python complex or float amplitudes
        that the library computed.  One finiteness test on the total stands
        for the per-entry test, since a NaN or infinite amplitude makes the
        total non-finite; one pass drops what is below ``PRUNE_EPS`` and
        adds ``0j``, as the constructor does.  A non-finite total, or a
        magnitude that overflows, goes to the constructor, which names it."""
        if not cmath.isfinite(sum(amps.values())):
            return cls(amps)
        v = object.__new__(cls)
        store = v._amps = {}
        try:
            for k, a in amps.items():
                if abs(a) >= PRUNE_EPS:
                    store[k] = 0j + a  # turns a -0.0 part into +0.0, as the constructor does
        except OverflowError:
            return cls(amps)
        return v

    def __getitem__(self, label: str) -> complex:
        return self._amps.get(label, 0j)

    def items(self) -> Iterable[tuple[str, complex]]:
        return self._amps.items()

    @property
    def support(self) -> frozenset[str]:
        return frozenset(self._amps)

    def __len__(self) -> int:
        return len(self._amps)

    def __repr__(self) -> str:
        body = ", ".join(f"{k!r}: {v:.6g}" for k, v in sorted(self._amps.items()))
        return f"AmpVec({{{body}}})"


# NumPy's complex magnitude may differ from Python's abs() in the last
# bits, so a magnitude this close to the floor, or this large, is left to
# the per-entry loop.
_FLOOR_LO, _FLOOR_HI = PRUNE_EPS * (1 - 2**-40), PRUNE_EPS * (1 + 2**-40)
_MAG_CAP = 1e308
# The NumPy passes cost about as much as the loop does on 64 amplitudes, and
# several times as much on one, as in a classical step's support-one ket.
_BULK_MIN = 64


def _bulk_store(labels: Sequence[str], values: np.ndarray) -> dict[str, complex] | None:
    """The store that the per-entry loop builds from ``zip(labels,
    values)``, in whole-array passes; None when an amplitude is not finite,
    its magnitude is near overflow or near ``PRUNE_EPS``, or a kept label
    repeats, so that the loop decides and names the fault."""
    with np.errstate(over="ignore", invalid="ignore"):
        mags = np.abs(values)
    keep = mags >= _FLOOR_HI
    if not ((mags < _MAG_CAP).all() and (keep | (mags <= _FLOOR_LO)).all()):
        return None  # NaN fails both tests
    if not keep.all():
        labels, values = list(itertools.compress(labels, keep.tolist())), values[keep]
    store = dict(zip(labels, (values + 0j).tolist()))  # + 0j turns -0.0 parts into +0.0, as the loop does
    return store if len(store) == len(values) else None


def ret(label: str) -> AmpVec:
    """Unit of the monad: the classical basis state |label>."""
    return AmpVec._trusted({label: 1.0 + 0j})


def lift(f: Mapping[str, str] | Callable[[str], str], src: FinBasis) -> KleisliOp:
    """Classical function as a Kleisli arrow: a -> ret(f(a)).  A table
    must cover every label of ``src``."""
    if isinstance(f, Mapping):
        missing = [x for x in src if x not in f]
        if missing:
            raise ValueError(f"partial table, missing {missing[0]!r}")
        f = dict(f).__getitem__
    return KleisliOp(src, lambda a: ret(f(a)))


def add(u: AmpVec, v: AmpVec) -> AmpVec:
    out = dict(u._amps)
    for k, a in v._amps.items():
        out[k] = out.get(k, 0j) + a
    return AmpVec._trusted(out)


def scale(c: complex, v: AmpVec) -> AmpVec:
    return AmpVec({k: c * a for k, a in v.items()})


def norm(v: AmpVec) -> float:
    return math.sqrt(sum(abs(a) ** 2 for _, a in v.items()))


def vec_equal(u: AmpVec, v: AmpVec, tol: float = DEFAULT_TOL) -> bool:
    """Sup-norm comparison of two kets."""
    a, b = u._amps, v._amps
    for k, x in a.items():
        if not abs(x - b.get(k, 0j)) <= tol:
            return False
    for k, y in b.items():
        if k not in a and not abs(y) <= tol:
            return False
    return True


@dataclass(frozen=True)
class KleisliOp:
    """Operation as a vector-valued function on a source basis."""

    src: FinBasis
    apply: Callable[[str], AmpVec]

    def __call__(self, label: str) -> AmpVec:
        return self.apply(label)


def bind(v: AmpVec, f: KleisliOp) -> AmpVec:
    """Linear extension of f over the support of v."""
    src, apply = f.src._index, f.apply
    acc: dict[str, complex] = {}
    get = acc.get
    for label, a in v._amps.items():
        if label not in src:
            raise KeyError(f"label {label!r} outside operation source basis")
        for out, b in apply(label)._amps.items():
            acc[out] = get(out, 0j) + a * b
    return AmpVec._trusted(acc)


def ret_op(basis: FinBasis) -> KleisliOp:
    return KleisliOp(basis, ret)


def kleisli(g: KleisliOp, f: KleisliOp) -> KleisliOp:
    """Kleisli composition g . f."""
    return KleisliOp(f.src, lambda a: bind(f.apply(a), g))


def tensor(f: KleisliOp, g: KleisliOp) -> KleisliOp:
    """Pairwise tensor on the row-major product basis."""
    src = product_basis(f.src, g.src)

    def apply(label: str) -> AmpVec:
        a, b = split_pair(label)
        fa, gb = f.apply(a)._amps, g.apply(b)._amps
        return AmpVec._trusted({pair_label(x, y): p * q for x, p in fa.items() for y, q in gb.items()})

    return KleisliOp(src, apply)


def direct_sum(f: KleisliOp, g: KleisliOp) -> KleisliOp:
    """Blockwise action on the tagged coproduct basis."""
    src = coproduct_basis(f.src, g.src)

    def apply(label: str) -> AmpVec:
        side, x = untag(label)
        if side == 0:
            return AmpVec._trusted({tag_left(k): a for k, a in f.apply(x)._amps.items()})
        return AmpVec._trusted({tag_right(k): a for k, a in g.apply(x)._amps.items()})

    return KleisliOp(src, apply)


# ---------------------------------------------------------------------------
# Structural isomorphisms of product bases

def _relabel(src: FinBasis, tgt: FinBasis, to: Sequence[int]) -> KleisliOp:
    """The classical arrow sending src[i] to tgt[to[i]]."""
    return lift(lambda label: tgt.labels[to[src.index(label)]], src)


def xl_op(a: FinBasis, b: FinBasis, c: FinBasis) -> KleisliOp:
    """Permutation (x,(y,z)) -> (y,(x,z)) swapping the first two of three."""
    src, tgt = product_basis(a, product_basis(b, c)), product_basis(b, product_basis(a, c))
    # Target indices on their (y,x,z) grid, read back in (x,y,z) order.
    grid = np.arange(len(tgt)).reshape(len(b), len(a), len(c))
    return _relabel(src, tgt, grid.transpose(1, 0, 2).ravel().tolist())


def assoc_op(a: FinBasis, b: FinBasis, c: FinBasis) -> KleisliOp:
    """Associator (x,(y,z)) -> ((x,y),z)."""
    src = product_basis(a, product_basis(b, c))
    return _relabel(src, product_basis(product_basis(a, b), c), range(len(src)))


def assoc_inv_op(a: FinBasis, b: FinBasis, c: FinBasis) -> KleisliOp:
    """Inverse associator ((x,y),z) -> (x,(y,z))."""
    src = product_basis(product_basis(a, b), c)
    return _relabel(src, product_basis(a, product_basis(b, c)), range(len(src)))


# ---------------------------------------------------------------------------
# Typed complex matrices

@dataclass(frozen=True, eq=False)
class CMatrix(_TypedMatrix):
    """Complex matrix typed src -> tgt (rows tgt, columns src)."""

    __slots__ = ()

    dtype = np.complex128

    def close_to(self, other: "CMatrix", tol: float = DEFAULT_TOL) -> bool:
        return (
            self.src == other.src
            and self.tgt == other.tgt
            and bool(np.max(np.abs(self.entries - other.entries), initial=0.0) <= tol)
        )


def materialize(f: KleisliOp, tgt: FinBasis) -> CMatrix:
    """Column j of the result is the ket f(src[j]) laid out over tgt."""
    index = tgt._index
    m = np.zeros((len(tgt), len(f.src)), dtype=np.complex128)
    for j, x in enumerate(f.src.labels):
        for label, a in f.apply(x)._amps.items():
            i = index.get(label)
            if i is None:
                raise KeyError(f"output label {label!r} outside target basis")
            m[i, j] = a
    return CMatrix._trusted(f.src, tgt, m)


class _ColumnKets(dict):
    """Source label -> the ket of its column of a matrix, built on first use."""

    __slots__ = ("_m", "_cols")

    def __init__(self, m: CMatrix) -> None:
        super().__init__()
        self._m, self._cols = m, m.entries.T.tolist()

    def __missing__(self, label: str) -> AmpVec:
        m = self._m
        ket = self[label] = AmpVec._trusted(dict(zip(m.tgt.labels, self._cols[m.src.index(label)])))
        return ket


def from_matrix(m: CMatrix) -> KleisliOp:
    """Columns of a matrix re-read as a vector-valued function.  Each
    column's ket is built on its first call and returned on every later
    one, by a dict lookup with no Python frame."""
    return KleisliOp(m.src, _ColumnKets(m).__getitem__)


def identity_matrix(basis: FinBasis) -> CMatrix:
    return CMatrix._trusted(basis, basis, np.eye(len(basis), dtype=np.complex128))


def matmul(a: CMatrix, b: CMatrix) -> CMatrix:
    if b.tgt != a.src:
        raise ValueError("matmul: inner bases do not match")
    return CMatrix._trusted(b.src, a.tgt, a.entries @ b.entries)


def kron(a: CMatrix, b: CMatrix) -> CMatrix:
    return CMatrix._trusted(
        product_basis(a.src, b.src),
        product_basis(a.tgt, b.tgt),
        np.kron(a.entries, b.entries),
    )


def dagger(m: CMatrix) -> CMatrix:
    return CMatrix._trusted(m.tgt, m.src, m.entries.conj().T)


def unitarity_gap(m: CMatrix) -> float:
    """How far m is from unitary: the larger sup-norm gap of m m* and m* m
    from the identity.  ``m`` is unitary at ``tol`` when this is at most ``tol``."""
    n, k = m.entries.shape
    if n != k:
        raise ValueError("unitarity_gap requires a square matrix")
    eye = np.eye(n)
    left = np.max(np.abs(m.entries @ m.entries.conj().T - eye))
    right = np.max(np.abs(m.entries.conj().T @ m.entries - eye))
    return float(max(left, right))


def is_unitary(m: CMatrix, tol: float = DEFAULT_TOL) -> bool:
    return unitarity_gap(m) <= tol


# ---------------------------------------------------------------------------
# Pinned text formats

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


def format_matrix(m: CMatrix) -> str:
    """Header of column labels, then one ``label: amps...`` line per row.

    A fold matrix repeats few distinct cells: ``np.unique`` finds them,
    each is formatted once, and the rows are joined from one take of their
    texts.  Cells that compare equal print alike (``_fmt_amp`` prints both
    zeros as ``0``), and with ``equal_nan=False`` no two NaN cells merge,
    so each keeps its own text."""
    e = m.entries
    cells, at = np.unique(e, return_inverse=True, equal_nan=False)
    text = np.array(list(map(_fmt_amp, cells.tolist())), dtype=object)
    rows = text[at.reshape(e.shape)].tolist()
    lines = [" ".join(m.src.labels)]
    lines += [f"{label}: {' '.join(row)}" for label, row in zip(m.tgt.labels, rows)]
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> CMatrix:
    """Read what ``format_matrix`` prints.

    ``_01_rows`` marks, in one NumPy pass, each row whose cells are
    exactly ``0+0i`` or ``1+0i``, one space apart, as every row of a
    permutation dump is, and reads its cells from their first characters.
    One loop then walks the rows in order: a marked row takes its
    precomputed cells, and every other row goes through the cell parser,
    which parses each distinct cell once.  Each row is checked for its
    cell count, its label and then its cells.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix dump")
    src = FinBasis(tuple(check_label(x) for x in lines[0].split()))
    parts = [ln.partition(": ") for ln in lines[1:]]
    fast, bits = _01_rows([rest for _, _, rest in parts], len(src))
    amp = functools.cache(_parse_amp)  # a dump repeats few distinct cells
    tgt_labels = []
    rows = []
    for (label, _, rest), ok, row in zip(parts, fast, bits):
        if ok:
            tgt_labels.append(check_label(label))
            rows.append(row)
            continue
        cells = rest.split()
        if len(cells) != len(src):
            raise ValueError(f"row {label!r} has {len(cells)} cells, expected {len(src)}")
        tgt_labels.append(check_label(label))
        rows.append([amp(c) for c in cells])
    return CMatrix(src, FinBasis(tuple(tgt_labels)), np.array(rows, dtype=np.complex128))


def _01_rows(rests: list[str], n: int) -> tuple[list[bool], np.ndarray]:
    """Which rows (their text after the label) hold only ``0+0i`` or
    ``1+0i`` cells, one space apart, and which cells of each row are
    ``1+0i``, as a bool array of one row each.  The joined text of the
    rows of the right width is one array of bytes, one row of it per row,
    and a byte or-ed with 1 at the start of each cell reads ``1`` only if
    it was ``0`` or ``1``."""
    width = 5 * n - 1
    fits = np.fromiter(map(len, rests), dtype=np.intp, count=len(rests)) == width
    # A non-ASCII character becomes one "?", which keeps the row's width and fits no cell.
    joined = "".join(itertools.compress(rests, fits)).encode("ascii", "replace")
    text = np.frombuffer(joined, dtype=np.uint8).reshape(-1, width)
    starts = np.zeros(width, dtype=np.uint8)
    starts[::5] = 1
    ones = np.frombuffer(" ".join(["1+0i"] * n).encode(), dtype=np.uint8)
    fast = np.zeros(len(rests), dtype=bool)
    fast[fits] = ((text | starts) == ones).all(axis=1)
    bits = np.zeros((len(rests), n), dtype=bool)
    bits[fits] = text[:, ::5] == ord("1")
    return fast.tolist(), bits


class _LineEnds(dict):
    """Amplitude -> the ``: amp`` end of its ``format_state`` line,
    formatted on first use."""

    __slots__ = ()

    def __missing__(self, a: complex) -> str:
        text = self[a] = f": {_fmt_amp(a)}\n"
        return text


def format_state(v: AmpVec, basis: Iterable[str] | None = None) -> str:
    """Nonzero amplitudes, one ``label: amp`` line, in basis order, or with
    no basis in the ket's own item order.  Each amplitude is read once, and
    each distinct one formatted once per call, on its first lookup in a
    ``_LineEnds`` dict; a repeat is then one dict lookup, with no Python
    frame.  In its own order a ket is printed as it stands, with no lookup
    and no test per label: its constructor left no label twice and no
    amplitude below ``PRUNE_EPS``."""
    end = _LineEnds().__getitem__  # a fold's ket repeats few distinct amplitudes
    if basis is None:
        amps = v._amps
        return "".join(itertools.chain.from_iterable(zip(amps, map(end, amps.values()))))
    return "".join([f"{x}{end(a)}" for x in basis if abs(a := v[x]) >= PRUNE_EPS])
