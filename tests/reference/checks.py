"""References for ``quantakit.checks``: earlier forms of its checks, each
kept verbatim apart from its name, for tests to compare the current
checks with."""
import itertools

import numpy as np

from quantakit import relalg
from quantakit.relalg import FinBasis, Rel


# Reference: the relalg suite's two loop checks before they were tested over
# all tuples at once, kept verbatim: the same 16 relations on a 2-element
# basis, and the library's operators on every tuple.

b2 = FinBasis(("p", "q"))
rels2 = [Rel(b2, b2, np.array(bits, dtype=bool).reshape(2, 2))
         for bits in itertools.product([0, 1], repeat=4)]


def ref_lub_2x2() -> bool:
    ok = True
    for r, s, x in itertools.product(rels2, rels2, rels2):
        lhs = relalg.leq_injectivity(relalg.pair(r, s), x)
        rhs = relalg.leq_injectivity(r, x) and relalg.leq_injectivity(s, x)
        if lhs != rhs:
            ok = False
            break
    return ok


def ref_exchange_law() -> bool:
    ok = True
    for r, s in itertools.product(rels2, rels2):
        for t, v in itertools.product(rels2[:8], rels2[8:]):
            lhs = relalg.either(relalg.pair(r, s), relalg.pair(t, v))
            rhs = relalg.pair(relalg.either(r, t), relalg.either(s, v))
            if lhs != rhs:
                ok = False
    return ok
