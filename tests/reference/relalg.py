"""References for ``quantakit.relalg``: earlier implementations of what
the module does now, each kept verbatim apart from its name, for tests to
compare the current code with."""
from typing import Iterator

import numpy as np

from quantakit.relalg import Rel, from_function, kernel


# ---------------------------------------------------------------------------
# Reference: the element-by-element walk that found the maximal partitions
# before the search went by class pattern, kept verbatim with its name.

def _maximal_partitions(cls: list[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Partitions of range(n) into blocks of distinct classes ``cls[i]`` that
    pairwise share a class; blocks by least element, members ascending."""
    n = len(cls)
    # one[i] / two[i]: the classes with at least one / two elements in i..n-1.
    one, two = [0] * (n + 1), [0] * (n + 1)
    for i in reversed(range(n)):
        bit = 1 << cls[i]
        one[i] = one[i + 1] | bit
        two[i] = two[i + 1] | (one[i + 1] & bit)
    blocks: list[list[int]] = []
    masks: list[int] = []  # the classes of each block, one bit each

    def walk(i: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        # Two blocks with disjoint classes can come to share one only through
        # an unplaced element of a class of either, or two unplaced elements
        # of a class of neither.  At the leaf this is the maximality test.
        for k, mk in enumerate(masks):
            for mj in masks[:k]:
                both = mj | mk
                if not mj & mk and not (both & one[i] or two[i] & ~both):
                    return
        if i == n:
            yield tuple(tuple(b) for b in blocks)
            return
        bit = 1 << cls[i]
        for k, b in enumerate(blocks):
            if not masks[k] & bit:
                b.append(i)
                masks[k] |= bit
                yield from walk(i + 1)
                masks[k] ^= bit
                b.pop()
        blocks.append([i])
        masks.append(bit)
        yield from walk(i + 1)
        masks.pop()
        blocks.pop()

    yield from walk(0)


# ---------------------------------------------------------------------------
# Reference: the search the walk replaced, kept verbatim: enumerate every
# valid partition, then keep those no other one coarsens.

def _partitions_avoiding(n: int, forbidden: np.ndarray):
    """All set partitions of range(n) with no forbidden pair sharing a block.

    Restricted-growth enumeration; a branch is pruned as soon as an element
    would join a block containing a partner it must stay apart from.
    """
    blocks: list[list[int]] = []

    def walk(i: int):
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


def _refines(p, q) -> bool:
    owner = {}
    for k, b in enumerate(q):
        for x in b:
            owner[x] = k
    return all(len({owner[x] for x in b}) == 1 for b in p)


def ref_minimal_complements(f: Rel) -> tuple[Rel, ...]:
    n = len(f.src)
    ker = kernel(f).entries
    forbidden = ker & ~np.eye(n, dtype=bool)

    maximal = []
    for p in _partitions_avoiding(n, forbidden):
        if any(_refines(p, q) for q in maximal):
            continue
        maximal = [q for q in maximal if not _refines(q, p)]
        maximal.append(p)

    def signature(p):
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
