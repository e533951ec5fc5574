from pathlib import Path
import itertools
import json
import random
from typing import Callable, Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tables as rt
from quantakit.cli import main
from quantakit.gates import bell, default_library
from quantakit.quanta import (
    MAX_LIST_STATES,
    ListBasis,
    check_fst_complement,
    fold_matrix,
    pinned16_basis,
    quantamorphism,
    rfold_rel,
    run_quanta,
    step_shape,
)
from quantakit.relalg import (
    BIT,
    ComplementError,
    FinBasis,
    Rel,
    SizeLimitError,
    from_function,
    list_label,
    pair_label,
    product_basis,
    split_list,
    split_pair,
)
from quantakit.vecmonad import (
    PRUNE_EPS,
    AmpVec,
    CMatrix,
    KleisliOp,
    bind,
    format_state,
    from_matrix,
    materialize,
    ret,
    vec_equal,
)

GOLDENS = Path(__file__).parent / "goldens"


# ---------------------------------------------------------------------------
# Reference: the list enumeration that ListBasis used before it derived its
# labels from an integer walk, kept verbatim apart from the function name.

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


def random_unitary_op(seed: int, basis: FinBasis) -> KleisliOp:
    rng = np.random.default_rng(seed)
    n = len(basis)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return from_matrix(CMatrix(basis, basis, q))


FOLDABLE = ["id", "cnot", "ccnot", "bell", "unbell", "alice", "cond"]


class TestPinnedReferences:
    def test_list_basis_order(self):
        assert ListBasis(2).labels == rt.FOLD_LABELS_14

    @pytest.mark.parametrize("item", [
        FinBasis(()), FinBasis(("a",)), BIT, FinBasis(("x", "y", "z")),
        product_basis(BIT, BIT),
    ], ids=["0", "1", "2", "3", "ccnot"])
    @pytest.mark.parametrize("maxlen", range(5))
    def test_list_basis_matches_reference_enumeration(self, item, maxlen):
        lists = FinBasis(tuple(list_label(t) for t in ref_enumerate_lists(item.labels, maxlen)))
        for payload in (BIT, FinBasis(("p",))):
            lb = ListBasis(maxlen, item, payload)
            assert lb.list_basis == lists
            assert lb.labels == product_basis(lists, payload).labels and len(lb) == len(lb.labels)

    def test_pinned16_order(self):
        assert pinned16_basis().labels == rt.PINNED16_LABELS

    def test_bell_fold_matrix(self):
        basis = ListBasis(2).basis
        m = materialize(quantamorphism(bell(), 2), basis)
        want = CMatrix(basis, basis, np.array(rt.BELL_FOLD_14, dtype=complex))
        assert m.close_to(want, tol=1e-12)

    def test_cnot_fold_permutation(self):
        basis = ListBasis(2).basis
        m = materialize(quantamorphism(default_library().op("cnot"), 2), basis)
        want = np.zeros((14, 14))
        for col, row in enumerate(rt.CNOT_FOLD_14_PERM):
            want[row, col] = 1.0
        assert np.array_equal(m.entries, want)

    def test_run_gives_x_state_and_one_more_fold_gives_y_state(self):
        x = run_quanta(bell(), "([1,0,0],1)")
        assert vec_equal(x, AmpVec(rt.X_STATE), tol=1e-12) and len(x) == len(rt.X_STATE)
        y = bind(x, quantamorphism(bell(), 3))
        assert vec_equal(y, AmpVec(rt.Y_STATE), tol=1e-12) and len(y) == len(rt.Y_STATE)

    @pytest.mark.parametrize("step", ["bell", "cnot"])
    def test_matrix_golden(self, capsys, step):
        assert main(["matrix", "--step", step, "--maxlen", "2"]) == 0
        golden = (GOLDENS / f"fold_{step}_maxlen2.txt").read_text()
        assert capsys.readouterr().out == golden

    @pytest.mark.parametrize("step, label, golden", [
        ("alice", "([0,1,1,0,1],(0,1))", "run_alice.txt"),
        ("ccnot", "([(0,1),(1,1),(1,0)],1)", "run_ccnot.txt"),
        ("bell", "([],0)", "run_bell_empty.txt"),
    ], ids=["alice", "ccnot", "bell-empty"])
    def test_run_golden(self, capsys, step, label, golden):
        assert main(["run", "--step", step, "--input", label]) == 0
        assert capsys.readouterr().out == (GOLDENS / golden).read_text()


@st.composite
def fold_cases(draw):
    item = FinBasis(tuple(f"a{i}" for i in range(draw(st.integers(1, 3)))))
    payload = FinBasis(tuple(f"p{i}" for i in range(draw(st.integers(1, 3)))))
    step = random_unitary_op(draw(st.integers(0, 2**32 - 1)), product_basis(item, payload))
    xs = draw(st.lists(st.sampled_from(item.labels), max_size=5))
    b = draw(st.sampled_from(payload.labels))
    return step, pair_label(list_label(xs), b)


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(fold_cases())
    def test_run_quanta_matches_reference(self, case):
        step, label = case
        got = run_quanta(step, label)
        want = ref_quanta_apply(step)(label)
        assert vec_equal(got, want, tol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(fold_cases())
    def test_fold_matrix_matches_reference(self, case):
        step, _ = case
        basis = ListBasis(3, *step_shape(step)).basis
        got = materialize(quantamorphism(step, 3), basis)
        want = materialize(KleisliOp(basis, ref_quanta_apply(step)), basis)
        assert got.close_to(want, tol=1e-12)
        assert fold_matrix(step, 3).close_to(want, tol=1e-12)

    def test_residue_below_prune_eps_is_dropped_at_every_level(self):
        # Item a turns the payload by +1e-3, item b by 5e-13 less, so each
        # (b, a) pair leaves a residue below PRUNE_EPS on p1.  Kept across
        # four pairs, the residues would add up above it.
        def turn(x):
            return np.array([[np.cos(x), -np.sin(x)], [np.sin(x), np.cos(x)]])

        m = np.zeros((4, 4))
        m[:2, :2], m[2:, 2:] = turn(1e-3), turn(-(1e-3 - 5e-13))
        src = product_basis(FinBasis(("a", "b")), FinBasis(("p0", "p1")))
        step = from_matrix(CMatrix(src, src, m))
        label = pair_label(list_label(["a", "b"] * 4), "p0")
        got = run_quanta(step, label)
        assert got.support == {"([a,b,a,b,a,b,a,b],p0)"}
        assert dict(got.items()) == dict(ref_quanta_apply(step)(label).items())

    @pytest.mark.parametrize("name", ["id", "cnot", "ccnot", "bell", "unbell", "alice", "cond"])
    def test_library_steps_match_reference_exactly(self, name):
        step = default_library().op(name)
        basis = ListBasis(3, *step_shape(step)).basis
        got = materialize(quantamorphism(step, 3), basis)
        want = materialize(KleisliOp(basis, ref_quanta_apply(step)), basis)
        assert got == want

    @pytest.mark.parametrize("name", FOLDABLE)
    def test_library_fold_matrices_match_reference_exactly(self, name):
        step = default_library().op(name)
        basis = ListBasis(3, *step_shape(step)).basis
        want = materialize(KleisliOp(basis, ref_quanta_apply(step)), basis)
        assert fold_matrix(step, 3) == want

    def test_run_refuses_a_block_above_the_cap(self):
        n = 18  # 2**18 lists of 18 bits, times two payloads
        with pytest.raises(SizeLimitError, match=f"lists of length {n} have {2 * MAX_LIST_STATES} states"):
            run_quanta(bell(), pair_label(list_label(["1"] * n), "0"))


def _run_inputs(item: FinBasis, payload: FinBasis, n: int) -> list[str]:
    rng = random.Random(f"{n}:{item.labels}:{payload.labels}")
    return [
        pair_label(list_label(rng.choices(item.labels, k=n)), rng.choice(payload.labels))
        for _ in range(2)
    ]


@pytest.mark.parametrize("name", FOLDABLE)
def test_cli_run_prints_the_reference_fold_in_list_basis_order(capsys, name):
    step = default_library().op(name)
    item, payload = step_shape(step)
    fold = ref_quanta_apply(step)
    for n in range(9):
        order = ListBasis(n, item, payload).basis
        for label in _run_inputs(item, payload, n):
            want = fold(label)
            assert main(["run", "--step", name, "--input", label]) == 0
            assert capsys.readouterr().out == format_state(want, order)
            assert main(["run", "--step", name, "--input", label, "--format", "json"]) == 0
            doc = {x: [want[x].real, want[x].imag] for x in order if abs(want[x]) >= PRUNE_EPS}
            assert capsys.readouterr().out == json.dumps(doc) + "\n"


@pytest.mark.parametrize("item", [
    FinBasis(("a",)), BIT, FinBasis(("x", "y", "z")), product_basis(BIT, BIT),
], ids=["1", "2", "3", "ccnot"])
@pytest.mark.parametrize("n", range(8))
def test_run_quanta_labels_follow_list_basis_order_and_parse_back(item, n):
    # A random unitary step reaches every (item, payload) pair, so the ket
    # holds many distinct low and high halves; n = 0 and 1 leave the low
    # half empty, and odd n splits the items unevenly.
    step = random_unitary_op(n, product_basis(item, BIT))
    label = _run_inputs(item, BIT, n)[0]
    got = run_quanta(step, label)
    assert vec_equal(got, ref_quanta_apply(step)(label), tol=1e-12)
    labels, support = [x for x, _ in got.items()], got.support
    assert labels == [x for x in ListBasis(n, item, BIT).labels if x in support]
    for x in labels:
        lst, b = split_pair(x)
        xs = split_list(lst)
        assert len(xs) == n and all(a in item for a in xs) and b in BIT


# ---------------------------------------------------------------------------
# Reference: the label-level classical reversible fold that quanta had
# before rfold_rel became the quantamorphism of the lifted step, kept
# verbatim apart from the names.

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


def rfold_outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("payload", [BIT, FinBasis(("p", "q", "r"))], ids=["bit", "pqr"])
def test_rfold_rel_matches_reference_on_every_table(payload):
    src = product_basis(BIT, payload)
    folds = 0
    for outs in itertools.product(payload.labels, repeat=len(src)):
        table = dict(zip(src.labels, outs))
        for maxlen in range(4):
            got = rfold_outcome(rfold_rel, table, maxlen, BIT, payload)
            want = rfold_outcome(ref_rfold_rel, table, maxlen, BIT, payload)
            assert type(got) is type(want) and got == want
            folds += isinstance(got, Rel)
    # Tables injective in the payload for each item: 2! * 2! and 3! * 3!.
    assert folds == 4 * (4 if len(payload) == 2 else 36)


def test_rfold_rel_names_the_first_colliding_inputs():
    table = {"(0,0)": "1", "(0,1)": "0", "(1,0)": "0", "(1,1)": "0"}
    with pytest.raises(ComplementError, match=r"inputs \(1,0\) and \(1,1\) collide$"):
        rfold_rel(table, 2)


@pytest.mark.parametrize("payload", [BIT, FinBasis(("p", "q", "r"))], ids=["bit", "pqr"])
def test_rfold_rel_over_no_items_is_the_identity_on_empty_lists(payload):
    for maxlen in range(4):
        got = rfold_rel({}, maxlen, FinBasis(()), payload)
        assert got == ref_rfold_rel({}, maxlen, FinBasis(()), payload)
        assert got.src.labels == tuple(pair_label("[]", b) for b in payload)
        assert np.array_equal(got.entries, np.eye(len(payload), dtype=bool))
