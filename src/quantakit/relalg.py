"""Typed Boolean relation algebra over finite bases.

A relation between two finite bases is stored as a Boolean matrix whose
rows are indexed by the target basis and whose columns are indexed by the
source basis: ``entries[i, j]`` holds exactly when ``tgt[i]`` is related
to ``src[j]``.  Functions are the relations with exactly one 1 per
column; bijections additionally have exactly one 1 per row.

Besides the pointfree operators (composition, converse, kernel, pairing,
junc, direct sum) the module provides the injectivity preorder, the
relation taxonomy predicates, difunctionality, and the exact search for
minimal complements: the coarsest partitions of the source that restore
injectivity when paired with a given function.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "BIT",
    "POINT",
    "BasisMismatchError",
    "ComplementError",
    "FinBasis",
    "MonoidSpec",
    "Rel",
    "SizeLimitError",
    "bang",
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
    "partition_blocks",
    "product_basis",
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
    """Raised when an input is beyond a named size cap (a brute-force search
    domain, a statevector's qubit count)."""


class ComplementError(ValueError):
    """Raised when a step function is not complemented by the first projection."""


# ---------------------------------------------------------------------------
# Bases and label syntax

@dataclass(frozen=True)
class FinBasis:
    """Ordered finite basis of distinct opaque labels."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(str(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        index = {x: i for i, x in enumerate(labels)}
        if len(index) != len(labels):
            raise ValueError("basis labels must be pairwise distinct")
        object.__setattr__(self, "_index", index)

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


def product_basis(a: FinBasis, b: FinBasis) -> FinBasis:
    """Pair basis in row-major order: the left factor varies slowest."""
    return FinBasis(tuple(pair_label(x, y) for x in a for y in b))


def coproduct_basis(a: FinBasis, b: FinBasis) -> FinBasis:
    """Tagged disjoint union: all left tags, then all right tags."""
    return FinBasis(
        tuple(tag_left(x) for x in a) + tuple(tag_right(y) for y in b)
    )


# ---------------------------------------------------------------------------
# Relations

@dataclass(frozen=True, eq=False)
class Rel:
    """Boolean matrix relation typed src -> tgt (rows tgt, columns src)."""

    src: FinBasis
    tgt: FinBasis
    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=bool).copy()
        if m.shape != (len(self.tgt), len(self.src)):
            raise ValueError(
                f"matrix shape {m.shape} does not match bases "
                f"{len(self.tgt)}x{len(self.src)}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rel):
            return NotImplemented
        return (
            self.src == other.src
            and self.tgt == other.tgt
            and np.array_equal(self.entries, other.entries)
        )

    __hash__ = None  # type: ignore[assignment]

    def holds(self, out_label: str, in_label: str) -> bool:
        return bool(self.entries[self.tgt.index(out_label), self.src.index(in_label)])

    def pairs(self) -> Iterator[tuple[str, str]]:
        rows, cols = np.nonzero(self.entries)
        for i, j in zip(rows.tolist(), cols.tolist()):
            yield self.tgt.labels[i], self.src.labels[j]


def identity(basis: FinBasis) -> Rel:
    return Rel(basis, basis, np.eye(len(basis), dtype=bool))


def from_function(
    f: Mapping[str, str] | Callable[[str], str], src: FinBasis, tgt: FinBasis
) -> Rel:
    """Function table as a relation: exactly one 1 per column."""
    get = f.__getitem__ if isinstance(f, Mapping) else f
    m = np.zeros((len(tgt), len(src)), dtype=bool)
    for j, x in enumerate(src):
        m[tgt.index(get(x)), j] = True
    return Rel(src, tgt, m)


def bang(src: FinBasis) -> Rel:
    """The unique function into the singleton basis."""
    return from_function(lambda _x: "*", src, POINT)


def compose(r: Rel, s: Rel) -> Rel:
    """Relational composition r . s, typed s.src -> r.tgt."""
    if s.tgt != r.src:
        raise BasisMismatchError("compose: target of s must equal source of r")
    return Rel(s.src, r.tgt, r.entries.astype(np.uint8) @ s.entries.astype(np.uint8) > 0)


def converse(r: Rel) -> Rel:
    return Rel(r.tgt, r.src, r.entries.T)


def kernel(r: Rel) -> Rel:
    return compose(converse(r), r)


def image(r: Rel) -> Rel:
    return compose(r, converse(r))


def meet(r: Rel, s: Rel) -> Rel:
    if r.src != s.src or r.tgt != s.tgt:
        raise BasisMismatchError("meet: relations must share both bases")
    return Rel(r.src, r.tgt, r.entries & s.entries)


def subset(r: Rel, s: Rel) -> bool:
    if r.src != s.src or r.tgt != s.tgt:
        raise BasisMismatchError("subset: relations must share both bases")
    return bool(np.all(~r.entries | s.entries))


def pair(r: Rel, s: Rel) -> Rel:
    """Split <r,s>: relates (b,c) to a iff b r a and c s a."""
    if r.src != s.src:
        raise BasisMismatchError("pair: relations must share their source")
    tgt = product_basis(r.tgt, s.tgt)
    m = (r.entries[:, None, :] & s.entries[None, :, :]).reshape(len(tgt), len(r.src))
    return Rel(r.src, tgt, m)


def either(r: Rel, s: Rel) -> Rel:
    """Junc [r|s] on the coproduct of the sources."""
    if r.tgt != s.tgt:
        raise BasisMismatchError("either: relations must share their target")
    src = coproduct_basis(r.src, s.src)
    return Rel(src, r.tgt, np.concatenate([r.entries, s.entries], axis=1))


def inj1(a: FinBasis, b: FinBasis) -> Rel:
    cop = coproduct_basis(a, b)
    return from_function(lambda x: tag_left(x), a, cop)


def inj2(a: FinBasis, b: FinBasis) -> Rel:
    cop = coproduct_basis(a, b)
    return from_function(lambda x: tag_right(x), b, cop)


def direct_sum(r: Rel, s: Rel) -> Rel:
    """r + s = [inj1 . r | inj2 . s]."""
    return either(compose(inj1(r.tgt, s.tgt), r), compose(inj2(r.tgt, s.tgt), s))


def gamma(a: FinBasis) -> Rel:
    """The bijection A+A -> BIT x A tagging with a leading bit."""
    cop = coproduct_basis(a, a)

    def route(label: str) -> str:
        side, x = untag(label)
        return pair_label("1" if side else "0", x)

    return from_function(route, cop, product_basis(BIT, a))


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

def _partitions_avoiding(n: int, forbidden: np.ndarray) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All set partitions of range(n) with no forbidden pair sharing a block.

    Restricted-growth enumeration; a branch is pruned as soon as an element
    would join a block containing a partner it must stay apart from.
    """
    blocks: list[list[int]] = []

    def walk(i: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i == n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            if not any(forbidden[i, j] for j in b):
                b.append(i)
                yield from walk(i + 1)
                b.pop()
        blocks.append([i])
        yield from walk(i + 1)
        blocks.pop()

    yield from walk(0)


def _refines(p: tuple[tuple[int, ...], ...], q: tuple[tuple[int, ...], ...]) -> bool:
    owner = {}
    for k, b in enumerate(q):
        for x in b:
            owner[x] = k
    return all(len({owner[x] for x in b}) == 1 for b in p)


def minimal_complements(f: Rel, max_domain: int = 12) -> tuple[Rel, ...]:
    """Coarsest partitions of f's source whose quotient restores injectivity.

    Each result is returned as the canonical quotient function sending every
    element to the least-index member of its block.  Exact brute force over
    set partitions, capped at ``max_domain`` source elements.
    """
    if not is_function(f):
        raise ValueError("minimal_complements requires a function")
    n = len(f.src)
    if n > max_domain:
        raise SizeLimitError(
            f"domain has {n} elements; brute-force search capped at {max_domain}"
        )
    ker = kernel(f).entries
    forbidden = ker & ~np.eye(n, dtype=bool)

    maximal: list[tuple[tuple[int, ...], ...]] = []
    for p in _partitions_avoiding(n, forbidden):
        if any(_refines(p, q) for q in maximal):
            continue
        maximal = [q for q in maximal if not _refines(q, p)]
        maximal.append(p)

    def signature(p: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(tuple(sorted(b)) for b in p))

    out = []
    for p in sorted(maximal, key=signature):
        rep = {}
        for b in p:
            least = min(b)
            for x in b:
                rep[x] = least
        q = from_function(
            lambda lbl: f.src.labels[rep[f.src.index(lbl)]], f.src, f.src
        )
        out.append(q)
    return tuple(out)


def partition_blocks(quotient: Rel) -> tuple[tuple[str, ...], ...]:
    """Blocks of a quotient function, grouped by shared representative."""
    groups: dict[str, list[str]] = {}
    for out_label, in_label in quotient.pairs():
        groups.setdefault(out_label, []).append(in_label)
    blocks = [tuple(sorted(g, key=quotient.src.index)) for g in groups.values()]
    return tuple(sorted(blocks, key=lambda b: quotient.src.index(b[0])))


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
        lhs, rhs = (part.strip() for part in line.split("->", 1))
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
