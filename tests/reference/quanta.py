"""References for ``quantakit.quanta``: earlier implementations of what
the module does now, each kept verbatim apart from its name, for tests to
compare the current code with."""
from typing import Callable, Mapping

import numpy as np

from quantakit.quanta import ListBasis, check_fst_complement, step_shape
from quantakit.relalg import BIT, FinBasis, Rel, from_function, list_label, pair_label, split_list, split_pair
from quantakit.vecmonad import PRUNE_EPS, AmpVec, KleisliOp, ret


# ---------------------------------------------------------------------------
# Reference: the slot kernel before it worked on the processed prefix, kept
# verbatim with its names.  Each slot transposes the whole length-n block
# around one product with the step matrix.

def _slots(u: np.ndarray, m: int, p: int, n: int, x: np.ndarray) -> np.ndarray:
    """Push each column of x, a length-n block, through the step matrix u
    (index item * p + payload): slot n on axis 0 first, slot 1 on axis
    n-1 last, dropping amplitudes below ``PRUNE_EPS`` after each slot."""
    k = x.shape[1]
    for axis in range(n):
        left, right = m**axis, m ** (n - 1 - axis)
        # Move (slot, payload) last, apply the step, move them back.
        y = x.reshape(left, m, right, p, k).transpose(0, 2, 4, 1, 3).reshape(-1, m * p) @ u.T
        x = y.reshape(left, right, k, m, p).transpose(0, 3, 1, 4, 2).reshape(-1, k)
        x[np.abs(x) < PRUNE_EPS] = 0
    return x


def _fold_blocks(u: np.ndarray, m: int, p: int, maxlen: int) -> np.ndarray:
    """The fold over ``ListBasis(maxlen)`` as a matrix: the identity of each
    length block through the slots, placed by the cons-preorder walk, which
    ``ref_enumerate_lists`` gives in lists of item indices."""
    lengths = np.array([len(t) for t in ref_enumerate_lists(tuple(range(m)), maxlen)])
    out = np.zeros((len(lengths) * p,) * 2, dtype=np.complex128)
    for n in range(lengths.max() + 1):
        rows = (np.flatnonzero(lengths == n)[:, None] * p + np.arange(p)).ravel()
        out[np.ix_(rows, rows)] = _slots(u, m, p, n, np.eye(len(rows)))
    return out


# ---------------------------------------------------------------------------
# Reference: the list enumeration that ListBasis used before it derived its
# labels from an integer walk, kept verbatim apart from the function name.
# ``_fold_blocks`` places its blocks by it; the list basis itself is pinned
# by ``reference_tables``, the goldens and the run tests.

def ref_enumerate_lists(items: tuple[str, ...], maxlen: int) -> tuple[tuple[str, ...], ...]:
    out: list[tuple[str, ...]] = []

    def walk(t: tuple[str, ...]) -> None:
        out.append(t)
        if len(t) < maxlen:
            for a in items:
                walk((a,) + t)

    walk(())
    return tuple(out)


# ---------------------------------------------------------------------------
# Reference: the label-level fold that quanta used before it tabulated the
# step, kept verbatim apart from the function name.

def ref_quanta_apply(step: KleisliOp) -> Callable[[str], AmpVec]:
    item, payload = step_shape(step)
    memo: dict[tuple[tuple[str, ...], str], AmpVec] = {}

    def fold(t: tuple[str, ...], b: str) -> AmpVec:
        key = (t, b)
        if key in memo:
            return memo[key]
        if not t:
            out = ret(pair_label(list_label(()), b))
        else:
            head, tail = t[0], t[1:]
            acc: dict[str, complex] = {}
            for sub, w1 in fold(tail, b).items():
                t2, b2 = split_pair(sub)
                for hb, w2 in step.apply(pair_label(head, b2)).items():
                    h2, b3 = split_pair(hb)
                    out_label = pair_label(
                        list_label((h2,) + split_list(t2)), b3
                    )
                    acc[out_label] = acc.get(out_label, 0j) + w1 * w2
            out = AmpVec(acc)
        memo[key] = out
        return out

    def apply(label: str) -> AmpVec:
        l, b = split_pair(label)
        return fold(split_list(l), b)

    return apply


# ---------------------------------------------------------------------------
# Reference: the label-level classical reversible fold that quanta had
# before rfold_rel became the quantamorphism of the lifted step, kept
# verbatim apart from the names.  Only the test against it kills the
# mutant of ``rfold_rel`` that folds the lifted step's inverse (``u.T``),
# which is the step itself on bit payloads: it alone folds tables on a
# three-state payload, whose rows can be 3-cycles.

def ref__rfold_run(table: Mapping[str, str], xs: tuple[str, ...], b: str) -> tuple[tuple[str, ...], str]:
    if not xs:
        return (), b
    y, b2 = ref__rfold_run(table, xs[1:], b)
    return (xs[0],) + y, table[pair_label(xs[0], b2)]


def ref_rfold_rel(
    table: Mapping[str, str],
    maxlen: int,
    item: FinBasis = BIT,
    payload: FinBasis = BIT,
) -> Rel:
    """The reversible fold tabulated as a relation on a truncated basis."""
    check_fst_complement(table, item, payload)
    lb = ListBasis(maxlen, item, payload)

    def act(label: str) -> str:
        l, b = split_pair(label)
        ys, b2 = ref__rfold_run(table, split_list(l), b)
        return pair_label(list_label(ys), b2)

    return from_function(act, lb.basis, lb.basis)
