"""Typed Boolean relation algebra over finite bases.

A relation between two finite bases is stored as a Boolean matrix whose
rows are indexed by the target basis and whose columns are indexed by the
source basis: ``entries[i, j]`` holds exactly when ``tgt[i]`` is related
to ``src[j]``.  Functions are the relations with exactly one 1 per
column; bijections additionally have exactly one 1 per row.

Product bases are row-major and coproducts list their left tags first,
so ``gamma``, ``inj1``, ``inj2`` and ``bang`` are built from basis
indices alone.  Labels read from files must be well formed
(``check_label``).

``Rel`` and ``vecmonad.CMatrix`` are one typed matrix, ``_TypedMatrix``,
with a bool or a complex128 ``dtype``, under one rule: the public
constructor checks what it is given, and a matrix the library builds
itself skips the checks its construction already guarantees.  The
constructor coerces its matrix to that dtype, copies it and checks its
shape; ``_trusted`` only marks a fresh result read-only and sets the
fields through their slots.  Two kinds of build go through
``Rel._trusted``.  The operators (composition, converse, kernel, meet,
pairing, junc) build a fresh bool matrix by a NumPy operation on the
entries of operands that were checked when they were built, so its dtype
and shape follow from theirs; ``converse`` shares its operand's
transposed read-only view.  The constructors ``identity``,
``from_function``, ``bang``, ``inj1``, ``inj2``, ``gamma`` and
``quotient`` fill a fresh bool matrix that they shape from its two bases.
Composition and kernel are Boolean matrix products: a count of witnesses
in a small integer type would wrap around on large bases.

Besides the pointfree operators (composition, converse, kernel, pairing,
junc, direct sum) the module provides the injectivity preorder, the
relation taxonomy predicates, difunctionality, and the exact search for
minimal complements: the coarsest partitions of the source that restore
injectivity when paired with a given function.  Those are the partitions
whose blocks hold distinct kernel classes and pairwise share one.  The
search goes by class, not by element: it finds each multiset of block
class-sets once, keeping equal sets as one kind with a count, then expands
each into element blocks with no duplicates.  An element alone in its
class joins any block, so those elements are a plain product over the
finished blocks.  The search returns each partition as blocks of source
indices; ``quotient`` turns one into a relation for a caller that needs it.
"""
from __future__ import annotations

import functools
import itertools
import operator
import re
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Iterator, Mapping, TypeVar

import numpy as np

__all__ = [
    "BIT",
    "POINT",
    "BasisMismatchError",
    "ComplementError",
    "FinBasis",
    "MAX_COMPLEMENT_DOMAIN",
    "MonoidSpec",
    "Rel",
    "SizeLimitError",
    "bang",
    "check_label",
    "compose",
    "converse",
    "coproduct_basis",
    "direct_sum",
    "either",
    "format_bool_matrix",
    "format_truth_table",
    "from_function",
    "gamma",
    "identity",
    "image",
    "inj1",
    "inj2",
    "is_bijection",
    "is_difunctional",
    "is_entire",
    "is_equivalence",
    "is_function",
    "is_injective",
    "is_simple",
    "is_surjective",
    "kernel",
    "leq_injectivity",
    "list_label",
    "meet",
    "minimal_complements",
    "pair",
    "pair_label",
    "parse_truth_table",
    "product_basis",
    "quotient",
    "split_list",
    "split_pair",
    "subset",
    "tag_left",
    "tag_right",
    "u_construct",
    "untag",
    "xor_monoid",
]


class BasisMismatchError(ValueError):
    """Raised when an operation is applied to relations of incompatible type."""


class SizeLimitError(ValueError):
    """Raised when an input is beyond a named size cap (the domain of the
    complement search, a statevector's qubit count)."""


class ComplementError(ValueError):
    """Raised when a step function is not complemented by the first projection."""


# ---------------------------------------------------------------------------
# Bases and label syntax

@dataclass(frozen=True)
class FinBasis:
    """Ordered finite basis of distinct opaque labels, equal when their
    label tuples are equal.  Operators compare and hash their bases on
    every call, so equality tests identity first, and the hash of the
    label tuple is computed once, on first use."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(str(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        index = {x: i for i, x in enumerate(labels)}
        if len(index) != len(labels):
            raise ValueError("basis labels must be pairwise distinct")
        object.__setattr__(self, "_index", index)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.labels == other.labels  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            # Set as the other fields are: writing to __dict__ itself would
            # make every later attribute read on this instance slower.
            h = hash((self.labels,))  # the hash the dataclass would give
            object.__setattr__(self, "_hash", h)
            return h

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._index  # type: ignore[attr-defined]

    def index(self, label: str) -> int:
        try:
            return self._index[label]  # type: ignore[attr-defined]
        except KeyError:
            raise KeyError(f"label {label!r} not in basis") from None


BIT = FinBasis(("0", "1"))
POINT = FinBasis(("*",))


def pair_label(a: str, b: str) -> str:
    return f"({a},{b})"


def list_label(items: Iterable[str]) -> str:
    return "[" + ",".join(items) + "]"


def tag_left(x: str) -> str:
    return f"i1({x})"


def tag_right(x: str) -> str:
    return f"i2({x})"


def _split_top(body: str) -> list[str]:
    """Split on commas that sit outside any (...) or [...] nesting."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return parts


def check_label(label: str) -> str:
    """Return a label read from a file, or raise ``ValueError`` if its
    brackets do not balance or it has a comma outside them."""
    closers: list[str] = []
    for ch in label:
        if ch in "([":
            closers.append(")" if ch == "(" else "]")
        elif ch in ")]":
            if not closers or closers.pop() != ch:
                break
        elif ch == "," and not closers:
            break
    else:
        if not closers:
            return label
    raise ValueError(f"malformed label {label!r}: brackets must balance and commas sit inside them")


def split_pair(label: str) -> tuple[str, str]:
    if not (label.startswith("(") and label.endswith(")")):
        raise ValueError(f"not a pair label: {label!r}")
    parts = _split_top(label[1:-1])
    if len(parts) != 2:
        raise ValueError(f"not a pair label: {label!r}")
    return parts[0], parts[1]


def split_list(label: str) -> tuple[str, ...]:
    if not (label.startswith("[") and label.endswith("]")):
        raise ValueError(f"not a list label: {label!r}")
    body = label[1:-1]
    if not body:
        return ()
    return tuple(_split_top(body))


def untag(label: str) -> tuple[int, str]:
    """Return (0, x) for a left tag i1(x), (1, x) for a right tag i2(x)."""
    m = re.fullmatch(r"i([12])\((.*)\)", label, flags=re.DOTALL)
    if m is None:
        raise ValueError(f"not a tagged label: {label!r}")
    return int(m.group(1)) - 1, m.group(2)


@functools.cache
def product_basis(a: FinBasis, b: FinBasis) -> FinBasis:
    """Pair basis in row-major order: the left factor varies slowest.  Built
    once per pair of bases and shared, as is a coproduct (``FinBasis`` is frozen)."""
    return FinBasis(tuple(pair_label(x, y) for x in a for y in b))


@functools.cache
def coproduct_basis(a: FinBasis, b: FinBasis) -> FinBasis:
    """Tagged disjoint union: all left tags, then all right tags."""
    return FinBasis(
        tuple(tag_left(x) for x in a) + tuple(tag_right(y) for y in b)
    )


# ---------------------------------------------------------------------------
# Typed matrices and relations

@dataclass(frozen=True, eq=False)
class _TypedMatrix:
    """Matrix typed src -> tgt (rows tgt, columns src) with read-only
    entries of the subclass's ``dtype``; equal only to a value of the same
    class over equal bases with equal entries, and unhashable.  Each
    subclass is a frozen dataclass too, so that its values refuse new
    attributes as well as writes to the fields, and declares no slots of
    its own, so that the three fields live in this class's slots."""

    __slots__ = ("src", "tgt", "entries")

    dtype: ClassVar[type]

    src: FinBasis
    tgt: FinBasis
    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=self.dtype).copy()
        if m.shape != (len(self.tgt), len(self.src)):
            raise ValueError(
                f"matrix shape {m.shape} does not match bases "
                f"{len(self.tgt)}x{len(self.src)}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @classmethod
    def _trusted(cls: type[_M], src: FinBasis, tgt: FinBasis, m: np.ndarray) -> _M:
        """An operator's result: ``m`` is a ``cls.dtype`` matrix of shape
        (len(tgt), len(src)) that no one else writes to.  Marked read-only,
        neither copied nor checked.  The fields are set through their slots,
        past the frozen ``__setattr__``."""
        m.setflags(write=False)
        r = object.__new__(cls)
        _set_src(r, src)
        _set_tgt(r, tgt)
        _set_entries(r, m)
        return r

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, self.__class__):
            return NotImplemented
        return (
            self.src == other.src
            and self.tgt == other.tgt
            and np.array_equal(self.entries, other.entries)
        )

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self) -> tuple:
        """Copies and pickles rebuild through the checked constructor: the
        frozen ``__setattr__`` refuses the slot state a default copy sets."""
        return self.__class__, (self.src, self.tgt, self.entries)


_M = TypeVar("_M", bound=_TypedMatrix)
_set_src, _set_tgt, _set_entries = (vars(_TypedMatrix)[f].__set__ for f in ("src", "tgt", "entries"))


@dataclass(frozen=True, eq=False)
class Rel(_TypedMatrix):
    """Boolean matrix relation typed src -> tgt (rows tgt, columns src)."""

    __slots__ = ()

    dtype = bool

    def holds(self, out_label: str, in_label: str) -> bool:
        return bool(self.entries[self.tgt.index(out_label), self.src.index(in_label)])

    def pairs(self) -> Iterator[tuple[str, str]]:
        rows, cols = np.nonzero(self.entries)
        for i, j in zip(rows.tolist(), cols.tolist()):
            yield self.tgt.labels[i], self.src.labels[j]


def identity(basis: FinBasis) -> Rel:
    return Rel._trusted(basis, basis, np.eye(len(basis), dtype=bool))


def from_function(
    f: Mapping[str, str] | Callable[[str], str], src: FinBasis, tgt: FinBasis
) -> Rel:
    """Function table as a relation: exactly one 1 per column."""
    get = f.__getitem__ if isinstance(f, Mapping) else f
    m = np.zeros((len(tgt), len(src)), dtype=bool)
    for j, x in enumerate(src):
        m[tgt.index(get(x)), j] = True
    return Rel._trusted(src, tgt, m)


def bang(src: FinBasis) -> Rel:
    """The unique function into the singleton basis."""
    return Rel._trusted(src, POINT, np.ones((1, len(src)), dtype=bool))


def compose(r: Rel, s: Rel) -> Rel:
    """Relational composition r . s, typed s.src -> r.tgt."""
    if s.tgt != r.src:
        raise BasisMismatchError("compose: target of s must equal source of r")
    return Rel._trusted(s.src, r.tgt, r.entries @ s.entries)


def converse(r: Rel) -> Rel:
    return Rel._trusted(r.tgt, r.src, r.entries.T)


def kernel(r: Rel) -> Rel:
    """converse(r) . r, as the one product of r's entries with their transpose."""
    x = r.entries
    return Rel._trusted(r.src, r.src, x.T @ x)


def image(r: Rel) -> Rel:
    return compose(r, converse(r))


def meet(r: Rel, s: Rel) -> Rel:
    if r.src != s.src or r.tgt != s.tgt:
        raise BasisMismatchError("meet: relations must share both bases")
    return Rel._trusted(r.src, r.tgt, r.entries & s.entries)


def subset(r: Rel, s: Rel) -> bool:
    if r.src != s.src or r.tgt != s.tgt:
        raise BasisMismatchError("subset: relations must share both bases")
    return not (r.entries > s.entries).any()  # on bools, r > s holds where r does and s does not


def pair(r: Rel, s: Rel) -> Rel:
    """Split <r,s>: relates (b,c) to a iff b r a and c s a."""
    src, x, y = r.src, r.entries, s.entries
    if s.src is not src and s.src != src:
        raise BasisMismatchError("pair: relations must share their source")
    m = (x[:, None] & y).reshape(len(x) * len(y), len(src))
    return Rel._trusted(src, product_basis(r.tgt, s.tgt), m)


def either(r: Rel, s: Rel) -> Rel:
    """Junc [r|s] on the coproduct of the sources."""
    if r.tgt != s.tgt:
        raise BasisMismatchError("either: relations must share their target")
    src = coproduct_basis(r.src, s.src)
    return Rel._trusted(src, r.tgt, np.concatenate([r.entries, s.entries], axis=1))


def inj1(a: FinBasis, b: FinBasis) -> Rel:
    return Rel._trusted(a, coproduct_basis(a, b), np.eye(len(a) + len(b), len(a), dtype=bool))


def inj2(a: FinBasis, b: FinBasis) -> Rel:
    return Rel._trusted(b, coproduct_basis(a, b), np.eye(len(a) + len(b), len(b), -len(a), dtype=bool))


def direct_sum(r: Rel, s: Rel) -> Rel:
    """r + s = [inj1 . r | inj2 . s]."""
    return either(compose(inj1(r.tgt, s.tgt), r), compose(inj2(r.tgt, s.tgt), s))


def gamma(a: FinBasis) -> Rel:
    """The bijection A+A -> BIT x A tagging with a leading bit."""
    return Rel._trusted(coproduct_basis(a, a), product_basis(BIT, a), np.eye(2 * len(a), dtype=bool))


# ---------------------------------------------------------------------------
# Taxonomy and the injectivity preorder

def is_injective(r: Rel) -> bool:
    return subset(kernel(r), identity(r.src))


def is_simple(r: Rel) -> bool:
    return is_injective(converse(r))


def is_entire(r: Rel) -> bool:
    return subset(identity(r.src), kernel(r))


def is_surjective(r: Rel) -> bool:
    return is_entire(converse(r))


def is_function(r: Rel) -> bool:
    return is_simple(r) and is_entire(r)


def is_bijection(r: Rel) -> bool:
    return is_function(r) and is_injective(r) and is_surjective(r)


def is_equivalence(r: Rel) -> bool:
    if r.src != r.tgt:
        return False
    reflexive = subset(identity(r.src), r)
    symmetric = subset(converse(r), r)
    transitive = subset(compose(r, r), r)
    return reflexive and symmetric and transitive


def is_difunctional(r: Rel) -> bool:
    return subset(compose(r, compose(converse(r), r)), r)


def leq_injectivity(r: Rel, s: Rel) -> bool:
    """r is at most as injective as s: ker s contained in ker r."""
    if r.src != s.src:
        raise BasisMismatchError("leq_injectivity: relations must share their source")
    return subset(kernel(s), kernel(r))


# ---------------------------------------------------------------------------
# Monoids and the self-inverse envelope

@dataclass(frozen=True)
class MonoidSpec:
    """Monoid (carrier; op, unit) with every element self-annihilating."""

    carrier: FinBasis
    op: Mapping[tuple[str, str], str]
    unit: str

    def __post_init__(self) -> None:
        table = dict(self.op)
        object.__setattr__(self, "op", table)
        xs = self.carrier.labels
        if self.unit not in self.carrier:
            raise ValueError("unit must belong to the carrier")
        for x in xs:
            for y in xs:
                if table.get((x, y)) not in self.carrier._index:  # type: ignore[attr-defined]
                    raise ValueError(f"operation table not total at ({x},{y})")
        for x in xs:
            if table[(self.unit, x)] != x or table[(x, self.unit)] != x:
                raise ValueError(f"unit law fails at {x}")
            if table[(x, x)] != self.unit:
                raise ValueError(f"self-annihilation x.x = unit fails at {x}")
        for x in xs:
            for y in xs:
                for z in xs:
                    if table[(table[(x, y)], z)] != table[(x, table[(y, z)])]:
                        raise ValueError(f"associativity fails at ({x},{y},{z})")

    def apply(self, x: str, y: str) -> str:
        return self.op[(x, y)]


def xor_monoid() -> MonoidSpec:
    table = {
        ("0", "0"): "0",
        ("0", "1"): "1",
        ("1", "0"): "1",
        ("1", "1"): "0",
    }
    return MonoidSpec(BIT, table, "0")


def u_construct(f: Rel, m: MonoidSpec) -> Rel:
    """Self-inverse bijection (x,y) -> (x, f(x) op y) enveloping f."""
    if not is_function(f):
        raise ValueError("u_construct requires a function")
    if f.tgt != m.carrier:
        raise BasisMismatchError("u_construct: f must map into the monoid carrier")
    dom = product_basis(f.src, m.carrier)

    fn = {x: f.tgt.labels[int(np.argmax(f.entries[:, j]))] for j, x in enumerate(f.src)}

    def step(label: str) -> str:
        x, y = split_pair(label)
        return pair_label(x, m.apply(fn[x], y))

    return from_function(step, dom, dom)


# ---------------------------------------------------------------------------
# Minimal complements

MAX_COMPLEMENT_DOMAIN = 12


def _block_patterns(sizes: list[int]) -> list[list[tuple[int, int]]]:
    """The multisets of block class-masks in which class k (bit k) lies in
    exactly ``sizes[k]`` blocks and every two blocks share a class, each as
    a list of (mask, count) kinds with distinct masks.

    Classes are placed in order, each spread over the kinds found so far
    and some new blocks.  Equal masks stay one kind, so blocks that are
    interchangeable are searched once."""
    # A block shares a class with a block now disjoint from it only through
    # a class still to place, and class k reaches sizes[k] - 1 other blocks.
    spare = [sum(sizes[k:]) - len(sizes) + k for k in range(len(sizes) + 1)]
    found: list[list[tuple[int, int]]] = []

    def place(k: int, kinds: list[tuple[int, int]]) -> None:
        for m, _ in kinds:
            if sum(t for m2, t in kinds if not m & m2) > spare[k]:
                return
        if k == len(sizes):
            found.append(kinds)
            return
        bit = 1 << k

        def spread(i: int, left: int, acc: list[tuple[int, int]]) -> None:
            if i == len(kinds):
                place(k + 1, acc + [(bit, left)] if left else acc)
                return
            m, t = kinds[i]
            for j in range(min(t, left) + 1):  # j of the t blocks take class k
                split = [(m, t - j)] if j < t else []
                if j:
                    split.append((m | bit, j))
                spread(i + 1, left - j, acc + split)

        spread(0, sizes[k], [])

    place(0, [])
    return found


def _deals(elems: list[int], runs: list[int]) -> Iterator[tuple[int, ...]]:
    """Each way to deal ``elems`` out one per slot, slots in order: each run
    of slots takes an ascending subset of its length, and the slots after
    the runs take a permutation of what is left."""
    if not runs:
        yield from itertools.permutations(elems)
        return
    for pick in itertools.combinations(elems, runs[0]):
        rest = [e for e in elems if e not in pick]
        for tail in _deals(rest, runs[1:]):
            yield pick + tail


def _maximal_partitions(cls: list[int]) -> list[tuple[tuple[int, ...], ...]]:
    """Partitions of range(n) into blocks of distinct classes ``cls[i]`` that
    pairwise share a class; blocks by least element, members ascending.

    Each pattern of block class-masks from ``_block_patterns`` (classes of
    two or more elements, largest first) is expanded into element bitmasks
    per block, class by class.  The blocks of one kind are told apart by
    the members of the kind's lowest class, which fill them in ascending
    order; every other class deals its members over its blocks in any
    order.  So each partition is built once.  An element alone in its
    class shares no class with another block, so it joins any block and
    never opens one: those elements multiply the finished blocks."""
    members: dict[int, list[int]] = {}
    for i, c in enumerate(cls):
        members.setdefault(c, []).append(i)
    classes = sorted((m for m in members.values() if len(m) > 1), key=len, reverse=True)
    if not classes:  # every class alone: one block, or none on no elements
        return [(tuple(range(len(cls))),)] if cls else [()]
    singles = [m[0] for m in members.values() if len(m) == 1]
    rows: list[tuple[int, ...]] = []
    for kinds in _block_patterns([len(m) for m in classes]):
        width = sum(t for _, t in kinds)
        found = [(0,) * width]
        for k, elems in enumerate(classes):
            bit = 1 << k
            runs: list[int] = []
            slots: list[int] = []  # the blocks with class k: the runs', then the rest
            free: list[int] = []
            start = 0
            for m, t in kinds:
                if m & bit:
                    if m & -m == bit and t > 1:  # class k is this kind's lowest
                        runs.append(t)
                        slots += range(start, start + t)
                    else:
                        free += range(start, start + t)
                start += t
            slots += free
            deals = []
            for deal in _deals(elems, runs):
                row = [0] * width
                for s, e in zip(slots, deal):
                    row[s] = 1 << e
                deals.append(tuple(row))
            found = [tuple(map(operator.or_, r, d)) for r in found for d in deals]
        for e in singles:
            deals = [(0,) * s + (1 << e,) + (0,) * (width - s - 1) for s in range(width)]
            found = [tuple(map(operator.or_, r, d)) for r in found for d in deals]
        rows += found
    blocks = {m: tuple([i for i in range(len(cls)) if m >> i & 1]) for m in set().union(*rows)}
    # Blocks are disjoint, so their tuples sort by least element.
    return [tuple(sorted(map(blocks.__getitem__, r))) for r in rows]


def minimal_complements(f: Rel) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Coarsest partitions of f's source whose quotient restores injectivity.

    These partitions keep each kernel class of f in distinct blocks, and
    every two of their blocks share a kernel class, or they could merge.  The
    search places whole kernel classes, largest first, into patterns of
    block class-sets, searching blocks with equal sets once, and drops a
    pattern once a block can no longer share a class with every other.  It
    then expands each pattern into element blocks, so it finishes on every
    source up to ``MAX_COMPLEMENT_DOMAIN`` elements.  Each partition is a
    tuple of blocks of source indices, blocks by least element and members
    ascending; the partitions come sorted.
    """
    if not is_function(f):
        raise ValueError("minimal_complements requires a function")
    n = len(f.src)
    if n > MAX_COMPLEMENT_DOMAIN:
        raise SizeLimitError(
            f"domain has {n} elements; complement search capped at {MAX_COMPLEMENT_DOMAIN}"
        )
    # f is a function, so column j holds one 1, in the row of j's class.
    return tuple(sorted(_maximal_partitions(np.nonzero(f.entries.T)[1].tolist())))


def quotient(src: FinBasis, blocks: Iterable[Iterable[int]]) -> Rel:
    """The function on src sending each element to the least member of its
    block; the blocks must partition the indices of src."""
    blocks = [sorted(b) for b in blocks]
    if not all(blocks) or sorted(i for b in blocks for i in b) != list(range(len(src))):
        raise ValueError(f"blocks {blocks} do not partition range({len(src)})")
    m = np.zeros((len(src), len(src)), dtype=bool)
    for b in blocks:
        m[b[0], b] = True
    return Rel._trusted(src, src, m)


# ---------------------------------------------------------------------------
# Text formats

def parse_truth_table(text: str) -> Rel:
    """Function table, one ``input -> output`` line per source label.

    The source basis is the line order; the target basis collects outputs
    in order of first appearance.
    """
    table: dict[str, str] = {}
    src_labels: list[str] = []
    tgt_labels: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "->" not in line:
            raise ValueError(f"malformed truth-table line: {raw!r}")
        lhs, rhs = (check_label(part.strip()) for part in line.split("->", 1))
        if not lhs or not rhs:
            raise ValueError(f"empty label in truth-table line: {raw!r}")
        if lhs in table:
            raise ValueError(f"duplicate source label: {lhs!r}")
        table[lhs] = rhs
        src_labels.append(lhs)
        if rhs not in tgt_labels:
            tgt_labels.append(rhs)
    if not table:
        raise ValueError("empty truth table")
    return from_function(table, FinBasis(tuple(src_labels)), FinBasis(tuple(tgt_labels)))


def format_truth_table(r: Rel) -> str:
    if not is_function(r):
        raise ValueError("only functions have a truth-table form")
    lines = []
    for j, x in enumerate(r.src):
        out = r.tgt.labels[int(np.argmax(r.entries[:, j]))]
        lines.append(f"{x} -> {out}")
    return "\n".join(lines) + "\n"


def format_bool_matrix(r: Rel, labels: bool = False) -> str:
    lines = []
    for i, row in enumerate(r.entries):
        cells = " ".join("1" if v else "0" for v in row)
        lines.append(f"{r.tgt.labels[i]}: {cells}" if labels else cells)
    return "\n".join(lines) + "\n"
