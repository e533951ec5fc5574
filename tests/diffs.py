"""Short failure reports for long outputs.  pytest reports a failed ``==``
by diffing both sides in full, which takes minutes on texts of thousands
of lines, and Hypothesis repeats the report on every failing example it
tries.  A test that compares long outputs stores the comparison in a bool
and asserts the bool with ``first_difference`` as its message."""
from collections.abc import Sequence


def first_difference(got: Sequence | str, want: Sequence | str) -> str:
    """Where two sequences, or two texts line by line, first differ: the
    index and both items there, or the length where the shorter one ends."""
    if isinstance(got, str) and isinstance(want, str):
        got, want = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for i, (x, y) in enumerate(zip(got, want)):
        if x != y:
            return f"first difference at item {i}: {x!r} != {y!r}"
    return f"lengths {len(got)} != {len(want)}" if len(got) != len(want) else "no item differs"
