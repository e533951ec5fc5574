"""Hypothesis strategies for basis labels as the text formats print them."""
from hypothesis import strategies as st

from quantakit.relalg import FinBasis, list_label, pair_label, tag_left, tag_right

# Atoms hold no blank, bracket, comma or "->" and never start with "#"
# (a truth-table comment); the nested ones are always among the examples.
atoms = st.one_of(
    st.text("01ab_*", min_size=1, max_size=3),
    st.sampled_from(["(0,1)", "[0,1]", "i1(x)"]),
)

labels = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.builds(pair_label, inner, inner),
        st.lists(inner, max_size=3).map(list_label),
        inner.map(tag_left),
        inner.map(tag_right),
    ),
    max_leaves=6,
)


def bases(min_size: int = 1, max_size: int = 3):
    return st.lists(labels, min_size=min_size, max_size=max_size, unique=True).map(
        lambda xs: FinBasis(tuple(xs))
    )
