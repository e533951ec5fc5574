"""References for ``quantakit.gates``: earlier implementations of what the
module does now, each kept verbatim apart from its name, for tests to
compare the current code with."""
from quantakit.relalg import BIT, pair_label, product_basis, split_pair
from quantakit.vecmonad import AmpVec, KleisliOp


# ---------------------------------------------------------------------------
# Reference: ``choice`` when it built its ket through the checked
# constructor, kept verbatim apart from the name.  Only the test against it
# kills the mutant that reverses the items of the branch's ket, since every
# other test compares kets by value.

def ref_choice(f: KleisliOp, g: KleisliOp) -> KleisliOp:
    """Quantum choice f <> g: control 0 routes the payload through f,
    control 1 through g, the control bit passing through untouched."""
    if f.src != g.src:
        raise ValueError("choice branches must share their payload basis")
    src = product_basis(BIT, f.src)

    def apply(label: str) -> AmpVec:
        a, b = split_pair(label)
        branch = f if a == "0" else g
        return AmpVec({pair_label(a, k): amp for k, amp in branch.apply(b).items()})

    return KleisliOp(src, apply)
