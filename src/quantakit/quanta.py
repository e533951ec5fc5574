"""Recursion combinators: the quantum fold and its one-layer unfolding.

The quantamorphism takes a unitary step on an (item, payload) pair basis
and recurses structurally over lists, producing an operation whose
materialization over a truncated list basis is unitary and block-diagonal
by list length.  It is the one fold: the classical reversible fold, in
which the list passes through while the payload accumulates a step
table, is the quantamorphism of that table lifted by ``ret``
(``rfold_rel``).  The fold tabulates its step once over the step's
(item, payload) source basis, memoises each sub-fold on its (item-index
tuple, payload) input, keeps the states it reaches as ints and formats
labels only in the ket it returns.  The structural isomorphisms that its
one-layer unfolding ``psi`` composes live in ``vecmonad``.

Truncated list bases are enumerated in a pinned cons-preorder: emit a
list, then recursively the lists obtained by prepending each item in
item-basis order, bounded by the maximum length, with the payload label
varying fastest.
"""
from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from .relalg import (
    BIT,
    ComplementError,
    FinBasis,
    Rel,
    SizeLimitError,
    coproduct_basis,
    from_function,
    is_injective,
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
    KleisliOp,
    direct_sum,
    is_unitary,
    kleisli,
    lift,
    materialize,
    ret_op,
    tensor,
    xl_op,
)

__all__ = [
    "MAX_LIST_STATES",
    "ListBasis",
    "alpha",
    "alpha_inv",
    "cata",
    "check_fst_complement",
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


def _enumerate_lists(items: tuple[str, ...], maxlen: int) -> tuple[tuple[str, ...], ...]:
    out: list[tuple[str, ...]] = []

    def walk(t: tuple[str, ...]) -> None:
        out.append(t)
        if len(t) < maxlen:
            for a in items:
                walk((a,) + t)

    walk(())
    return tuple(out)


@dataclass(frozen=True)
class ListBasis:
    """Basis of (list, payload) pairs for lists up to a maximum length,
    refused before it is enumerated when it would exceed
    ``MAX_LIST_STATES`` states."""

    maxlen: int
    item: FinBasis = BIT
    payload: FinBasis = BIT
    lists: tuple[tuple[str, ...], ...] = field(init=False, repr=False, compare=False)
    list_basis: FinBasis = field(init=False, repr=False, compare=False)
    basis: FinBasis = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.maxlen < 0:
            raise ValueError("maxlen must be non-negative")
        size = len(self.payload) * sum(len(self.item) ** k for k in range(self.maxlen + 1))
        if size > MAX_LIST_STATES:
            raise SizeLimitError(f"list basis has {size} states; capped at {MAX_LIST_STATES}")
        lists = _enumerate_lists(self.item.labels, self.maxlen)
        object.__setattr__(self, "lists", lists)
        list_basis = FinBasis(tuple(list_label(t) for t in lists))
        object.__setattr__(self, "list_basis", list_basis)
        object.__setattr__(self, "basis", product_basis(list_basis, self.payload))

    @property
    def labels(self) -> tuple[str, ...]:
        return self.basis.labels


def pinned16_basis() -> FinBasis:
    """The 16-state basis: all lists up to length 2, then the two states
    on the all-zero length-3 list, matching a 4-bit binary encoding."""
    upto2 = ListBasis(2).basis.labels
    extra = (
        pair_label(list_label(("0", "0", "0")), "0"),
        pair_label(list_label(("0", "0", "0")), "1"),
    )
    return FinBasis(upto2 + extra)


def step_shape(step: KleisliOp) -> tuple[FinBasis, FinBasis]:
    """Recover (item, payload) bases from a step's pair-product source."""
    firsts: list[str] = []
    seconds: list[str] = []
    for label in step.src:
        a, b = split_pair(label)
        if a not in firsts:
            firsts.append(a)
        if b not in seconds:
            seconds.append(b)
    item, payload = FinBasis(tuple(firsts)), FinBasis(tuple(seconds))
    if product_basis(item, payload) != step.src:
        raise ValueError("step source is not an (item, payload) product basis")
    return item, payload


# ---------------------------------------------------------------------------
# Classical reversible folds

def check_fst_complement(
    table: Mapping[str, str], item: FinBasis, payload: FinBasis
) -> None:
    """Reject step tables not injective in the payload once the item is fixed."""
    src = product_basis(item, payload)
    f = from_function(lambda l: table[l], src, payload)
    fst = from_function(lambda l: split_pair(l)[0], src, item)
    if is_injective(pair(fst, f)):
        return
    k = kernel(pair(fst, f)).entries
    for i, x in enumerate(src):
        for j, y in enumerate(src):
            if i < j and k[i, j]:
                raise ComplementError(
                    f"step not first-projection complemented: inputs {x} and {y} collide"
                )


def rfold_rel(
    table: Mapping[str, str],
    maxlen: int,
    item: FinBasis = BIT,
    payload: FinBasis = BIT,
) -> Rel:
    """The reversible fold tabulated as a relation on a truncated basis:
    the quantamorphism of the lifted step (a,b) -> (a, table[(a,b)])."""
    check_fst_complement(table, item, payload)
    step = lift(lambda l: pair_label(split_pair(l)[0], table[l]), product_basis(item, payload))
    fold = quantamorphism(step, maxlen, validate=False)
    return Rel(fold.src, fold.src, materialize(fold, fold.src).entries != 0)


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
    memo: dict[tuple[tuple[str, ...], str], str] = {}

    def fold(t: tuple[str, ...], b: str) -> str:
        key = (t, b)
        if key not in memo:
            if not t:
                memo[key] = algebra(0, b)
            else:
                memo[key] = algebra(1, pair_label(t[0], fold(t[1:], b)))
        return memo[key]

    def act(label: str) -> str:
        l, b = split_pair(label)
        return fold(split_list(l), b)

    return from_function(act, lb.basis, carrier)


# ---------------------------------------------------------------------------
# The quantum fold

def _quanta_apply(step: KleisliOp, item: FinBasis, payload: FinBasis) -> Callable[[str], AmpVec]:
    # Inside the fold a (list, payload) state of list length k is one int,
    # code * p + payload index, where code holds the k item indices in base m,
    # head in the lowest digit: consing item c onto state s = code * p + b
    # with new payload d gives (code * m + c) * p + d.
    m, p = len(item), len(payload)
    # The step, tabulated once: row a * p + b lists (c, d, amplitude).
    table = []
    for a in item:
        for b in payload:
            image = [(split_pair(out), w) for out, w in step.apply(pair_label(a, b)).items()]
            table.append([(item.index(c), payload.index(d), w) for (c, d), w in image])
    memo: dict[tuple[tuple[int, ...], int], dict[int, complex]] = {}

    def fold(t: tuple[int, ...], b: int) -> dict[int, complex]:
        key = (t, b)
        if key not in memo:
            if not t:
                memo[key] = {b: 1.0 + 0j}
            else:
                acc: dict[int, complex] = {}
                head = t[0] * p
                for s, w1 in fold(t[1:], b).items():
                    code, b2 = divmod(s, p)
                    for c, d, w2 in table[head + b2]:
                        out = (code * m + c) * p + d
                        acc[out] = acc.get(out, 0j) + w1 * w2
                memo[key] = {s: a for s, a in acc.items() if abs(a) >= PRUNE_EPS}
        return memo[key]

    def apply(label: str) -> AmpVec:
        l, b = split_pair(label)
        t = tuple(item.index(x) for x in split_list(l))
        out: dict[str, complex] = {}
        for s, a in fold(t, payload.index(b)).items():
            code, d = divmod(s, p)
            xs = []
            for _ in t:
                code, c = divmod(code, m)
                xs.append(item.labels[c])
            out[pair_label(list_label(xs), payload.labels[d])] = a
        return AmpVec(out)

    return apply


def quantamorphism(step: KleisliOp, maxlen: int, validate: bool = True) -> KleisliOp:
    """Structural quantum fold of a unitary step over a truncated list basis.

    To fold over another set of (list, payload) states, such as
    ``pinned16_basis()``, re-type the result: ``KleisliOp(basis, fold.apply)``.
    """
    item, payload = step_shape(step)
    if validate and not is_unitary(materialize(step, step.src)):
        raise ValueError("quantamorphism step must materialize to a unitary matrix")
    lb = ListBasis(maxlen, item, payload)
    return KleisliOp(lb.basis, _quanta_apply(step, item, payload))


def run_quanta(step: KleisliOp, input_label: str) -> AmpVec:
    """Apply the quantum fold to one (list, payload) basis state."""
    return _quanta_apply(step, *step_shape(step))(input_label)


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
    outer = ListBasis(maxlen, item, payload)

    def act(label: str) -> str:
        l, b = split_pair(label)
        items = split_list(l)
        if not items:
            return tag_left(b)
        rest = pair_label(list_label(items[1:]), b)
        return tag_right(pair_label(items[0], rest))

    return lift(act, outer.basis)


def psi(x: KleisliOp, maxlen: int) -> KleisliOp:
    """One unfolding layer: alpha after (id + xl . (id x x) . xl)."""
    item, payload = step_shape(x)
    inner = ListBasis(maxlen - 1, item, payload)
    first = xl_op(item, inner.list_basis, payload)
    middle = tensor(ret_op(inner.list_basis), x)
    back = xl_op(inner.list_basis, item, payload)
    branch = kleisli(back, kleisli(middle, first))
    return kleisli(alpha(maxlen, item, payload), direct_sum(ret_op(payload), branch))


def quantamorphism_via_psi(step: KleisliOp, maxlen: int) -> KleisliOp:
    """The fold recomposed from its one-layer unfolding, for cross-checking."""
    item, payload = step_shape(step)
    if maxlen == 0:
        return ret_op(ListBasis(0, item, payload).basis)
    smaller = quantamorphism_via_psi(step, maxlen - 1)
    wired = direct_sum(ret_op(payload), tensor(ret_op(item), smaller))
    return kleisli(psi(step, maxlen), kleisli(wired, alpha_inv(maxlen, item, payload)))
