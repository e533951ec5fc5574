"""Recursion combinators: the quantum fold and its one-layer unfolding.

The quantamorphism takes a unitary step on an (item, payload) pair basis
and recurses structurally over lists; materialized over a truncated list
basis it is unitary and block-diagonal by list length.  It is the one
fold: the classical reversible fold is the quantamorphism of a lifted
step table (``rfold_rel``).  The structural isomorphisms that its
one-layer unfolding ``psi`` composes live in ``vecmonad``.

Truncated list bases are enumerated in a pinned cons-preorder: emit a
list, then recursively the lists obtained by prepending each item in
item-basis order, bounded by the maximum length, with the payload label
varying fastest.  The states of one list length n form a dense
``(|item|,)*n + (|payload|,)`` block, the last item on axis 0 and the
head on axis n-1, whose C order is their cons-preorder.  The fold is a
cascade of one step instance per list cell, slot n (the last item) first
and slot 1 (the head) last, with amplitudes below ``PRUNE_EPS`` dropped
after each.  ``_slots`` runs it on the processed prefix: after slots n
down to k, a basis state's image depends only on the items already read,
and every unread slot still holds its input item.  So each slot is one
product of the step's columns for the item read with a prefix image that
grows by one item axis, and no work goes to unread slots.  ``_fold_blocks``
reads every item at every slot, so one pass from the identity on payloads
yields each length block in turn, for ``fold_matrix`` and ``rfold_rel``.

``run_quanta`` keeps the rule that ``circuitgen`` keeps: support one runs
on integers, and anything else runs dense.  A step whose every column is
one exact 1 (a 0/1 function, as every classical step) sends one state to
one state, so ``run_quanta`` walks its slots as one lookup each and prints
the one label.  Any other step pushes its one state through ``_slots``,
reading its own items.

A step enters as a ``Step``, its matrix and (item, payload) bases held
by index, as ``GateLibrary`` records it; ``_step`` is the one prologue,
and parses an ad-hoc ``KleisliOp`` with ``step_shape``.  Other labels
are parsed and printed only at the edges: ``ListBasis``, the state label
of ``run_quanta`` and the kets and matrices that the entry points return.
Both print a list label from two half tables, the first n//2 items and
the rest, each half printed once, and each label is one join: printing a
dense ket costs its support plus about 2·√(states) half texts, not its
states times their items.
"""
from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cache, cached_property, partial

import numpy as np

from .relalg import (
    BIT,
    ComplementError,
    FinBasis,
    Rel,
    SizeLimitError,
    coproduct_basis,
    from_function,
    kernel,
    list_label,
    pair,
    pair_label,
    product_basis,
    split_list,
    split_pair,
    tag_left,
    tag_right,
    untag,
)
from .vecmonad import (
    PRUNE_EPS,
    AmpVec,
    CMatrix,
    KleisliOp,
    direct_sum,
    from_matrix,
    is_unitary,
    kleisli,
    lift,
    materialize,
    ret_op,
    tensor,
    xl_op,
)

__all__ = [
    "MAX_FOLD_STATES",
    "MAX_LIST_STATES",
    "ListBasis",
    "Step",
    "alpha",
    "alpha_inv",
    "cata",
    "check_fst_complement",
    "fold_matrix",
    "pinned16_basis",
    "psi",
    "quantamorphism",
    "quantamorphism_via_psi",
    "rfold_rel",
    "run_quanta",
    "step_shape",
]


# ---------------------------------------------------------------------------
# Truncated list bases

MAX_LIST_STATES = 2**18


def _unprintable(m: int, p: int, n: int) -> bool:
    """Whether ``p * m**n`` may have more digits than ``str`` prints of an
    int: ``sys.get_int_max_str_digits()``, or its default of 4,300 where no
    limit is set (0, or a Python before 3.10.7).  The bound is read from
    logarithms, so nothing is raised to a power, and a count that long is
    refused at once, with no count in its text."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    return m > 1 and p > 0 and math.log10(p) + n * math.log10(m) >= limit - 1


def _cons_preorder(m: int, maxlen: int) -> list[tuple[int, int]]:
    """(length, code) of each list up to maxlen in cons-preorder; a code
    holds the item indices in base m, head in the lowest digit."""
    out: list[tuple[int, int]] = []

    def walk(n: int, code: int) -> None:
        out.append((n, code))
        if n < maxlen:
            for a in range(m):
                walk(n + 1, code * m + a)

    walk(0, 0)
    return out


def _half_tables(n: int, labels: tuple[str, ...]) -> tuple[list[str], list[str]]:
    """The texts of every half of a length-n list, indexed by half code:
    the low half (the first n//2 items) as ``[a,b,`` (``[`` when empty)
    and the high half (the rest) as ``c,d]``.  A code holds its head in
    the lowest digit, and ``itertools.product`` varies its last item
    fastest, so each tuple is joined reversed.  The list of code c is
    ``low[c % m**(n//2)] + high[c // m**(n//2)]``."""
    h = n // 2
    sep = "," if h else ""
    low = ["[" + ",".join(t[::-1]) + sep for t in itertools.product(labels, repeat=h)]
    high = [",".join(t[::-1]) + "]" for t in itertools.product(labels, repeat=n - h)]
    return low, high


@dataclass(frozen=True)
class ListBasis:
    """Basis of (list, payload) pairs for lists up to a maximum length,
    in cons-preorder with the payload fastest.  The states of one length
    n keep the C order of their ``(|item|,)*n + (|payload|,)`` block.  A
    basis over ``MAX_LIST_STATES`` states is refused when it is built;
    its labels are derived from the integer walk on first use."""

    maxlen: int
    item: FinBasis = BIT
    payload: FinBasis = BIT

    def __post_init__(self) -> None:
        if self.maxlen < 0:
            raise ValueError("maxlen must be non-negative")
        n = self.maxlen
        if _unprintable(len(self.item), len(self.payload), n + 1):  # the count is below p * m**(n+1)
            raise SizeLimitError(
                f"list basis on lists up to length {n} has more than {MAX_LIST_STATES} states;"
                f" capped at {MAX_LIST_STATES}"
            )
        states = self.states
        if states > MAX_LIST_STATES:
            raise SizeLimitError(f"list basis has {states} states; capped at {MAX_LIST_STATES}")

    @property
    def states(self) -> int:
        """``|payload| * (1 + m + ... + m**maxlen)`` in closed form, for m
        items; unlike ``len``, it may exceed ``sys.maxsize``."""
        m, n = len(self.item), self.maxlen
        return len(self.payload) * (n + 1 if m == 1 else (m ** (n + 1) - 1) // (m - 1))

    def __len__(self) -> int:
        return self.states

    @cached_property
    def list_basis(self) -> FinBasis:
        by_length = []
        for n in range(self.maxlen + 1):
            low, high = _half_tables(n, self.item.labels)
            by_length.append([a + b for b in high for a in low])
        return FinBasis(tuple(by_length[n][code] for n, code in _cons_preorder(len(self.item), self.maxlen)))

    @cached_property
    def basis(self) -> FinBasis:
        return product_basis(self.list_basis, self.payload)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.basis.labels


def pinned16_basis() -> FinBasis:
    """The 16-state basis: all lists up to length 2, then the two states
    on the all-zero length-3 list, matching a 4-bit binary encoding."""
    zeros = list_label(("0", "0", "0"))
    return FinBasis(ListBasis(2).labels + (pair_label(zeros, "0"), pair_label(zeros, "1")))


def step_shape(step: KleisliOp) -> tuple[FinBasis, FinBasis]:
    """Recover (item, payload) bases from a step's pair-product source:
    the edge where a step's labels are parsed."""
    pairs = [split_pair(label) for label in step.src]
    item = FinBasis(tuple(dict.fromkeys(a for a, _ in pairs)))
    payload = FinBasis(tuple(dict.fromkeys(b for _, b in pairs)))
    if product_basis(item, payload) != step.src:
        raise ValueError("step source is not an (item, payload) product basis")
    return item, payload


# ---------------------------------------------------------------------------
# Classical reversible folds

def check_fst_complement(
    table: Mapping[str, str], item: FinBasis, payload: FinBasis
) -> Rel:
    """The lifted step (a,b) -> (a, table[(a,b)]), the split of the first
    projection and the table, which ``rfold_rel`` folds; tables not
    injective in the payload once the item is fixed are rejected."""
    src = product_basis(item, payload)
    fst = from_function(lambda l: split_pair(l)[0], src, item)
    f = from_function(table.__getitem__, src, payload)
    lifted = pair(fst, f)
    collisions = np.argwhere(np.triu(kernel(lifted).entries, 1))
    if len(collisions):
        x, y = (src.labels[i] for i in collisions[0])
        raise ComplementError(f"step not first-projection complemented: inputs {x} and {y} collide")
    return lifted


def rfold_rel(
    table: Mapping[str, str],
    maxlen: int,
    item: FinBasis = BIT,
    payload: FinBasis = BIT,
) -> Rel:
    """The reversible fold tabulated as a relation on a truncated basis:
    the quantamorphism of the lifted step that ``check_fst_complement``
    checks and returns."""
    u = check_fst_complement(table, item, payload).entries
    basis = _fold_basis(maxlen, item, payload)
    return Rel._trusted(basis, basis, _fold_blocks(u, len(item), len(payload), maxlen) != 0)


def cata(
    algebra: Callable[[int, str], str],
    maxlen: int,
    carrier: FinBasis,
    item: FinBasis = BIT,
    payload: FinBasis = BIT,
) -> Rel:
    """Classical fold into an arbitrary carrier, tabulated as a function.

    ``algebra(0, b)`` handles the empty list; ``algebra(1, "(a,c)")``
    combines a head item with the value folded from the tail.
    """
    lb = ListBasis(maxlen, item, payload)

    @cache
    def fold(t: tuple[str, ...], b: str) -> str:
        return algebra(1, pair_label(t[0], fold(t[1:], b))) if t else algebra(0, b)

    def act(label: str) -> str:
        l, b = split_pair(label)
        return fold(split_list(l), b)

    return from_function(act, lb.basis, carrier)


# ---------------------------------------------------------------------------
# The quantum fold

def _slots(
    u: np.ndarray, p: int, reads: Iterable[Sequence[int]], v: np.ndarray
) -> Iterator[np.ndarray]:
    """The fold on the processed prefix: yield ``v``, then its image after
    each slot, slot n (the last item) first.  Each row of ``v`` is an input
    (the items read so far, newest first, then the input payload) and an
    output prefix (the items written so far, oldest first); its p columns
    are the payload.  ``reads`` names the input items each slot reads: one
    for a single state, every item for a whole block.  A slot is one
    product per item d read, with the step's columns ``u[:, d*p:(d+1)*p]``
    (index item * p + payload): d joins the input items and the step's
    output item joins the output prefix.  Unread slots still hold their
    input items, so no work is spent on them.  Amplitudes below
    ``PRUNE_EPS`` are dropped after each slot."""
    u = np.asarray(u, dtype=np.complex128)
    yield v
    for ds in reads:
        out = np.empty((len(ds), len(v), len(u)), dtype=np.complex128)
        for t, d in enumerate(ds):
            np.dot(v, u[:, d * p:(d + 1) * p].T, out=out[t])
        v = out.reshape(-1, p)
        v[np.abs(v) < PRUNE_EPS] = 0
        yield v


MAX_FOLD_STATES = 2**12
"""Largest ``ListBasis`` that ``fold_matrix`` and ``rfold_rel`` fold: the
dense matrix takes 16 * states**2 bytes (256 MiB at the cap)."""


def _fold_basis(maxlen: int, item: FinBasis, payload: FinBasis) -> FinBasis:
    """``ListBasis(maxlen, item, payload).basis``, refused past the cap before it is built."""
    lb = ListBasis(maxlen, item, payload)
    if lb.states > MAX_FOLD_STATES:
        raise SizeLimitError(f"fold matrix has {lb.states} states; MAX_FOLD_STATES caps it at {MAX_FOLD_STATES}")
    return lb.basis


def _fold_blocks(u: np.ndarray, m: int, p: int, maxlen: int) -> np.ndarray:
    """The fold over ``ListBasis(maxlen)`` as a matrix, by length blocks.
    One pass of the slots reads every item at every slot, starting from
    the identity on payloads, and the prefix after n slots is the whole
    length-n block: a square matrix whose input rows list the items head
    first.  Each block lands at its cons-preorder rows and columns, its
    input items reversed into code order."""
    lengths = np.array([n for n, _ in _cons_preorder(m, maxlen)])
    out = np.zeros((len(lengths) * p,) * 2, dtype=np.complex128)
    # Each length's rows, its lists in code order, one block after another.
    by_length = np.argsort(lengths, kind="stable")[:, None] * p + np.arange(p)
    reads = [range(m)] * lengths.max()
    for n, v in enumerate(_slots(u, p, reads, np.eye(p, dtype=np.complex128))):
        rows, by_length = by_length[:m**n], by_length[m**n:]
        head_first = np.arange(m**n).reshape((m,) * n).transpose().ravel()
        out.T[rows[head_first].reshape(-1, 1), rows.ravel()] = v.reshape(rows.size, -1)
    return out


@dataclass(frozen=True, eq=False)
class Step:
    """A step as the fold takes it: its matrix u over the (item, payload)
    pair basis, index ``item * |payload| + payload``, the two bases, and
    the name ``GateLibrary`` registers it under, by which ``run_quanta``
    names a label outside a basis; an ad-hoc step has none."""

    u: CMatrix
    item: FinBasis
    payload: FinBasis
    name: str | None = None

    @cached_property
    def rows(self) -> list[int] | None:
        """The row of each column's one entry, where every column of u has
        exactly one nonzero entry and that entry is exactly 1, as for
        ``id``, ``cnot``, ``ccnot`` and every lifted table; otherwise None.
        ``run_quanta`` walks such a step on integers.  A unit phase keeps
        the step dense: BLAS rounds the dense product of a phase apart
        from a walk's products, and the two routes must agree bit for bit."""
        e = self.u.entries
        nonzero = e != 0
        if not ((nonzero.sum(axis=0) == 1).all() and (e[nonzero] == 1).all()):
            return None
        return nonzero.argmax(axis=0).tolist()


def _step(step: KleisliOp | Step) -> Step:
    """The entry points' one prologue: a ``Step`` passes as it is, and an
    ad-hoc ``KleisliOp`` is parsed by ``step_shape`` and materialized."""
    if isinstance(step, Step):
        return step
    return Step(materialize(step, step.src), *step_shape(step))


def _index(basis: FinBasis, label: str, role: str, step: str | None) -> int:
    try:
        return basis.index(label)
    except KeyError:
        of = "" if step is None else f" of step {step!r}"
        raise ValueError(f"{role} {label!r} is not in the {role} basis{of} (have: {', '.join(basis)})") from None


def run_quanta(step: KleisliOp | Step, input_label: str) -> AmpVec:
    """Apply the quantum fold to one (list, payload) basis state, slot n
    (the last item) first.  The label is read here only: split once, each
    item and then the payload named if it is outside the step's basis, and
    the list refused if ``ListBasis`` up to its length passes the cap.

    A step with ``Step.rows`` walks integers: each slot is one lookup of
    the (item, payload) row, and the one output label is one join.  Any
    other step pushes a one-hot payload through the slots; the image grows
    by one item axis per slot, up to the length-n block.  The ket lists its
    states in block index order, which is ``ListBasis`` order.  Its labels
    join two halves and a payload from ``_half_tables``, which prints each
    half once, so printing costs the support plus about 2·√(states) half
    texts.  Both routes build the ket in ``AmpVec``'s array form."""
    s = _step(step)
    l, b = split_pair(input_label)
    xs = split_list(l)
    reads = [(_index(s.item, x, "item", s.name),) for x in xs][::-1]
    payload = _index(s.payload, b, "payload", s.name)
    n, p = len(xs), len(s.payload)
    ListBasis(n, s.item, s.payload)  # refuses a list past the cap
    items, pays = s.item.labels, s.payload.labels
    rows = s.rows
    if rows is not None:  # support one: each slot sends (item, payload) to one row
        out_items = []
        for (d,) in reads:
            a, payload = divmod(rows[d * p + payload], p)
            out_items.append(items[a])
        label = "([" + ",".join(out_items[::-1]) + "]," + pays[payload] + ")"
        return AmpVec([label], np.ones(1, dtype=np.complex128))
    v = np.zeros((1, p), dtype=np.complex128)
    v[0, payload] = 1
    *_, out = _slots(s.u.entries, p, reads, v)
    out = out.ravel()
    support = (out != 0).nonzero()[0]
    codes, pay = np.divmod(support, p)
    high, low = np.divmod(codes, len(items) ** (n // 2))
    low_text, high_text = _half_tables(n, items)
    return AmpVec(
        [f"({low_text[x]}{high_text[y]},{pays[z]})" for x, y, z in zip(low.tolist(), high.tolist(), pay.tolist())],
        out[support],
    )


def quantamorphism(step: KleisliOp | Step, maxlen: int) -> KleisliOp:
    """Structural quantum fold of a unitary step over ``ListBasis(maxlen)``.

    The result is lazy: applied to a label of list length n, it pushes
    that basis state through slots n down to 1 (``run_quanta``).
    ``fold_matrix`` gives the fold as a matrix, by blocks.
    """
    s = _step(step)
    if not is_unitary(s.u):
        raise ValueError("quantamorphism step must materialize to a unitary matrix")
    return KleisliOp(ListBasis(maxlen, s.item, s.payload).basis, partial(run_quanta, s))


def fold_matrix(step: KleisliOp | Step, maxlen: int) -> CMatrix:
    """``materialize(quantamorphism(step, maxlen), ListBasis(maxlen).basis)``
    by blocks, with no label per column: one pass of the slots yields every
    length block, and each lands at its cons-preorder rows and columns."""
    s = _step(step)
    basis = _fold_basis(maxlen, s.item, s.payload)
    return CMatrix._trusted(basis, basis, _fold_blocks(s.u.entries, len(s.item), len(s.payload), maxlen))


# ---------------------------------------------------------------------------
# The list algebra and its one-layer unfolding

def _alpha_act(label: str, maxlen: int) -> str:
    side, body = untag(label)
    if side == 0:
        return pair_label(list_label(()), body)
    a, lb = split_pair(body)
    l, b = split_pair(lb)
    items = (a,) + split_list(l)
    if len(items) > maxlen:
        raise ValueError(f"cons exceeds maximum list length {maxlen}")
    return pair_label(list_label(items), b)


def alpha(maxlen: int, item: FinBasis = BIT, payload: FinBasis = BIT) -> KleisliOp:
    """List-algebra isomorphism B + A x (A*<maxlen x B) -> A*<=maxlen x B."""
    if maxlen < 1:
        raise ValueError("alpha needs maxlen >= 1")
    inner = ListBasis(maxlen - 1, item, payload)
    src = coproduct_basis(payload, product_basis(item, inner.basis))
    return lift(lambda l: _alpha_act(l, maxlen), src)


def alpha_inv(maxlen: int, item: FinBasis = BIT, payload: FinBasis = BIT) -> KleisliOp:
    """Inverse of alpha: uncons non-empty lists, tag empty ones left."""
    if maxlen < 1:
        raise ValueError("alpha_inv needs maxlen >= 1")

    def act(label: str) -> str:
        l, b = split_pair(label)
        items = split_list(l)
        if not items:
            return tag_left(b)
        return tag_right(pair_label(items[0], pair_label(list_label(items[1:]), b)))

    return lift(act, ListBasis(maxlen, item, payload).basis)


def psi(x: KleisliOp | Step, maxlen: int) -> KleisliOp:
    """One unfolding layer: alpha after (id + xl . (id x x) . xl)."""
    s = _step(x)
    inner = ListBasis(maxlen - 1, s.item, s.payload)
    first = xl_op(s.item, inner.list_basis, s.payload)
    middle = tensor(ret_op(inner.list_basis), from_matrix(s.u))
    back = xl_op(inner.list_basis, s.item, s.payload)
    branch = kleisli(back, kleisli(middle, first))
    return kleisli(alpha(maxlen, s.item, s.payload), direct_sum(ret_op(s.payload), branch))


def quantamorphism_via_psi(step: KleisliOp | Step, maxlen: int) -> KleisliOp:
    """The fold recomposed from its one-layer unfolding, for cross-checking."""
    s = _step(step)
    if maxlen == 0:
        return ret_op(ListBasis(0, s.item, s.payload).basis)
    smaller = quantamorphism_via_psi(s, maxlen - 1)
    wired = direct_sum(ret_op(s.payload), tensor(ret_op(s.item), smaller))
    return kleisli(psi(s, maxlen), kleisli(wired, alpha_inv(maxlen, s.item, s.payload)))
