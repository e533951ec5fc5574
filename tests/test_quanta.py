from pathlib import Path
import itertools
import json
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tables as rt
from quantakit import quanta
from quantakit.cli import main
from quantakit.gates import bell, default_library
from quantakit.quanta import (
    MAX_FOLD_STATES,
    MAX_LIST_STATES,
    ListBasis,
    Step,
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
    POINT,
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
    vec_equal,
)
from reference import quanta as ref
from reference.quanta import ref_quanta_apply, ref_rfold_rel

GOLDENS = Path(__file__).parent / "goldens"


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
    def test_list_basis_counts_its_labels(self, item, maxlen):
        for payload in (BIT, FinBasis(("p",))):
            lb = ListBasis(maxlen, item, payload)
            assert lb.labels == product_basis(lb.list_basis, payload).labels and len(lb) == len(lb.labels)

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

    @pytest.mark.parametrize("step", ["bell", "cnot", "alice"])
    def test_matrix_golden(self, capsys, step):
        assert main(["matrix", "--step", step, "--maxlen", "2"]) == 0
        golden = (GOLDENS / f"fold_{step}_maxlen2.txt").read_text()
        assert capsys.readouterr().out == golden

    @pytest.mark.parametrize("step, label, golden", [
        ("alice", "([0,1,1,0,1],(0,1))", "run_alice.txt"),
        ("ccnot", "([(0,1),(1,1),(1,0)],1)", "run_ccnot.txt"),
        ("bell", "([],0)", "run_bell_empty.txt"),
        ("cnot", "([1,0,1,1,0,0,1,0,1,1,1,0,0,1,0,1],0)", "run_cnot16.txt"),  # the longest list the cap allows
    ], ids=["alice", "ccnot", "bell-empty", "cnot16"])
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
        n = 18  # 2**19 - 1 lists of up to 18 bits, times two payloads
        with pytest.raises(SizeLimitError, match=f"list basis has {4 * MAX_LIST_STATES - 2} states"):
            run_quanta(bell(), pair_label(list_label(["1"] * n), "0"))

    def test_run_names_the_cap_where_the_count_is_too_long_to_print(self):
        n = 20000
        with pytest.raises(SizeLimitError, match=f"^list basis on lists up to length {n} has more than {MAX_LIST_STATES} states"):
            run_quanta(bell(), pair_label(list_label(["1"] * n), "0"))

    def test_run_caps_the_list_basis_up_to_its_length_as_the_cli_does(self):
        """16 bits fold (262,142 states up to length 16); 17 are refused
        with the text ``run`` prints, as the CLI reads no label itself."""
        step = default_library().step("bell")
        assert len(run_quanta(step, pair_label(list_label(["1"] * 16), "0"))) == 2**16
        with pytest.raises(SizeLimitError, match=f"^list basis has 524286 states; capped at {MAX_LIST_STATES}$"):
            run_quanta(step, pair_label(list_label(["1"] * 17), "0"))

    @pytest.mark.parametrize("label, named", [
        ("([2],0)", "item '2' is not in the item basis{} (have: 0, 1)"),
        ("([1,x,y],1)", "item 'x' is not in the item basis{} (have: 0, 1)"),
        ("([1],5)", "payload '5' is not in the payload basis{} (have: 0, 1)"),
        ("([x],5)", "item 'x' is not in the item basis{} (have: 0, 1)"),
        ("([" + "1," * 17 + "x],5)", "item 'x' is not in the item basis{} (have: 0, 1)"),  # items, payload, cap
    ])
    def test_run_names_a_label_outside_the_step_basis_and_the_step(self, label, named):
        """A library step is named as ``run`` names it; an ad-hoc one is not."""
        with pytest.raises(ValueError) as lib_step:
            run_quanta(default_library().step("cnot"), label)
        assert str(lib_step.value) == named.format(" of step 'cnot'")
        with pytest.raises(ValueError) as ad_hoc:
            run_quanta(bell(), label)
        assert str(ad_hoc.value) == named.format("")


@pytest.mark.parametrize(
    "item, named",
    [
        (BIT, f"list basis on lists up to length 1000000 has more than {MAX_LIST_STATES} states"),
        (POINT, f"list basis has 2000002 states; capped at {MAX_LIST_STATES}"),
    ],
    ids=["bit", "point"],
)
def test_a_million_item_list_basis_is_refused_at_once(item, named):
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match=f"^{named}"):
        ListBasis(10**6, item)
    assert time.perf_counter() - start < 1.0  # a term-by-term sum grows quadratically in maxlen


_XOR = {"(0,0)": "0", "(0,1)": "1", "(1,0)": "1", "(1,1)": "0"}
_DENSE_FOLDS = {
    "fold_matrix": lambda maxlen: fold_matrix(default_library().step("bell"), maxlen),
    "rfold_rel": lambda maxlen: rfold_rel(_XOR, maxlen),
}


@pytest.mark.parametrize("fold", _DENSE_FOLDS.values(), ids=_DENSE_FOLDS)
def test_a_dense_fold_past_the_cap_is_refused_at_once(fold):
    """maxlen 12 on bits is 16,382 states, a 4.3 GB matrix: refused before
    anything is allocated."""
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match=f"^fold matrix has 16382 states; MAX_FOLD_STATES caps it at {MAX_FOLD_STATES}$"):
        fold(12)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("fold", _DENSE_FOLDS.values(), ids=_DENSE_FOLDS)
def test_a_dense_fold_at_the_cap_is_folded(fold, monkeypatch):
    monkeypatch.setattr(quanta, "MAX_FOLD_STATES", 14)  # maxlen 2 on bits
    assert len(fold(2).src) == 14
    with pytest.raises(SizeLimitError, match="^fold matrix has 30 states; MAX_FOLD_STATES caps it at 14$"):
        fold(3)


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


def test_check_fst_complement_returns_the_lifted_step():
    src = product_basis(BIT, BIT)
    lifted = 0
    for outs in itertools.product(BIT.labels, repeat=len(src)):
        table = dict(zip(src.labels, outs))
        if len({(split_pair(x)[0], y) for x, y in table.items()}) < len(src):
            with pytest.raises(ComplementError):
                check_fst_complement(table, BIT, BIT)
            continue
        want = from_function(lambda x: pair_label(split_pair(x)[0], table[x]), src, src)
        assert check_fst_complement(table, BIT, BIT) == want
        lifted += 1
    assert lifted == 4


@pytest.mark.parametrize("payload", [BIT, FinBasis(("p", "q", "r"))], ids=["bit", "pqr"])
def test_rfold_rel_over_no_items_is_the_identity_on_empty_lists(payload):
    for maxlen in range(4):
        got = rfold_rel({}, maxlen, FinBasis(()), payload)
        assert got.src.labels == tuple(pair_label("[]", b) for b in payload)
        assert np.array_equal(got.entries, np.eye(len(payload), dtype=bool))


# ---------------------------------------------------------------------------
# The prefix kernel against the whole-block kernel it replaced, bit for bit:
# the float64 views must hold the same bit patterns, so a last-ulp drift or
# a -0.0 for a 0.0 (which compare equal as floats) fails.

def _bits(amps) -> np.ndarray:
    return np.asarray(amps, dtype=np.complex128).view(np.float64).view(np.uint64)


def _block_label(i: int, n: int, item: FinBasis, payload: FinBasis) -> str:
    code, b = divmod(i, len(payload))
    xs = []
    for _ in range(n):
        code, d = divmod(code, len(item))
        xs.append(item.labels[d])
    return pair_label(list_label(xs), payload.labels[b])


def assert_run_is_the_block_kernel_bit_for_bit(s: Step, label: str) -> None:
    got = run_quanta(s, label)
    lst, b = split_pair(label)
    xs = split_list(lst)
    m, p, n = len(s.item), len(s.payload), len(xs)
    col = np.zeros((m**n * p, 1), dtype=np.complex128)
    col[sum(s.item.index(x) * m**k for k, x in enumerate(xs)) * p + s.payload.index(b)] = 1
    want = ref._slots(s.u.entries, m, p, n, col)[:, 0]
    support = want.nonzero()[0]
    assert [x for x, _ in got.items()] == [_block_label(i, n, s.item, s.payload) for i in support]
    assert np.array_equal(_bits([a for _, a in got.items()]), _bits(want[support]))


def assert_fold_is_the_block_kernel_bit_for_bit(s: Step, maxlen: int) -> None:
    m, p = len(s.item), len(s.payload)
    want = ref._fold_blocks(s.u.entries, m, p, maxlen)
    assert np.array_equal(_bits(fold_matrix(s, maxlen).entries), _bits(want))


@st.composite
def kernel_cases(draw):
    item = FinBasis(tuple(f"a{i}" for i in range(draw(st.integers(1, 3)))))
    payload = FinBasis(tuple(f"p{i}" for i in range(draw(st.integers(1, 3)))))
    src = product_basis(item, payload)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        z = rng.normal(size=(len(src),) * 2) + 1j * rng.normal(size=(len(src),) * 2)
        q, r = np.linalg.qr(z)
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    else:  # a lifted table as rfold_rel builds it: real, one payload permutation per item
        m, p = len(item), len(payload)
        u = np.zeros((m * p, m * p))
        for a in range(m):
            u[a * p + rng.permutation(p), a * p + np.arange(p)] = 1
    xs = draw(st.lists(st.sampled_from(item.labels), max_size=6))
    label = pair_label(list_label(xs), draw(st.sampled_from(payload.labels)))
    maxlen = draw(st.integers(0, 6 if len(item) < 3 else 4))
    return Step(CMatrix(src, src, u), item, payload), u, label, maxlen


class TestPrefixKernel:
    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    def test_random_steps_match_the_block_kernel_bit_for_bit(self, case):
        s, u, label, maxlen = case
        assert_run_is_the_block_kernel_bit_for_bit(s, label)
        assert_fold_is_the_block_kernel_bit_for_bit(s, maxlen)
        # A lifted table's real u goes in as it is, as rfold_rel passes it.
        m, p = len(s.item), len(s.payload)
        got = quanta._fold_blocks(u, m, p, maxlen)
        assert np.array_equal(_bits(got), _bits(ref._fold_blocks(u, m, p, maxlen)))

    @pytest.mark.parametrize("name", FOLDABLE)
    def test_library_steps_match_the_block_kernel_bit_for_bit(self, name):
        s = default_library().step(name)
        for maxlen in range(5):
            assert_fold_is_the_block_kernel_bit_for_bit(s, maxlen)
        for n in range(8 if name == "ccnot" else 11):
            for label in _run_inputs(s.item, s.payload, n):
                assert_run_is_the_block_kernel_bit_for_bit(s, label)



# ---------------------------------------------------------------------------
# One rule for support one: run_quanta walks a step whose every column is
# one exact 1 on integers, and runs any other step dense; both give what
# the dense route gives, bit for bit.

FOLD_CHECKED_STATES = 2**10
"""Largest basis whose ``fold_matrix`` (16 MiB here) and ``cata`` table a
property builds per example; past it the run is held to the block kernel."""


def _states(n: int, item: FinBasis, payload: FinBasis) -> int:
    return len(payload) * sum(len(item) ** k for k in range(n + 1))


def _classical_fold(table: dict[str, str], n: int, item: FinBasis, payload: FinBasis) -> Rel:
    """``cata`` of a step table into the list basis: the table maps the head
    and the payload folded from the tail to a new head and payload."""
    def algebra(tag: int, x: str) -> str:
        if tag == 0:
            return pair_label(list_label(()), x)
        a, rest = split_pair(x)
        l, b = split_pair(rest)
        a2, b2 = split_pair(table[pair_label(a, b)])
        return pair_label(list_label((a2,) + split_list(l)), b2)

    return quanta.cata(algebra, n, ListBasis(n, item, payload).basis, item, payload)


@st.composite
def function_step_cases(draw):
    """A 0/1 function step from a random table (not only a bijection) over
    bit or three-label items and 1 to 3 payloads, and an input of length
    0 to 12."""
    item = draw(st.sampled_from([BIT, FinBasis(("x", "y", "z"))]))
    payload = FinBasis(tuple(f"p{i}" for i in range(draw(st.integers(1, 3)))))
    src = product_basis(item, payload)
    outs = draw(st.lists(st.sampled_from(src.labels), min_size=len(src), max_size=len(src)))
    table = dict(zip(src.labels, outs))
    s = Step(CMatrix(src, src, from_function(table, src, src).entries), item, payload)
    xs = draw(st.lists(st.sampled_from(item.labels), max_size=12))
    return s, table, pair_label(list_label(xs), draw(st.sampled_from(payload.labels))), len(xs)


def assert_run_is_the_fold_column_bit_for_bit(got: AmpVec, m: CMatrix, label: str) -> None:
    col = m.entries[:, m.src.index(label)]
    support = col.nonzero()[0]
    assert [x for x, _ in got.items()] == [m.tgt.labels[i] for i in support]
    assert np.array_equal(_bits([a for _, a in got.items()]), _bits(col[support]))


class TestSupportOne:
    @settings(max_examples=150, deadline=None)
    @given(function_step_cases())
    def test_a_function_step_walks_to_the_dense_route_bit_for_bit(self, case):
        s, table, label, n = case
        assert s.rows is not None
        states = _states(n, s.item, s.payload)
        if states > MAX_LIST_STATES:  # three-label items past length 10
            with pytest.raises(SizeLimitError, match=f"^list basis has {states} states; capped at {MAX_LIST_STATES}$"):
                run_quanta(s, label)
            return
        got = run_quanta(s, label)
        if states > FOLD_CHECKED_STATES:
            assert_run_is_the_block_kernel_bit_for_bit(s, label)
            return
        assert_run_is_the_fold_column_bit_for_bit(got, fold_matrix(s, n), label)
        want = [y for y, x in _classical_fold(table, n, s.item, s.payload).pairs() if x == label]
        assert list(got.items()) == [(want[0], 1 + 0j)]

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([BIT, FinBasis(("x", "y", "z"))]), st.integers(1, 3),
        st.integers(0, 2**32 - 1), st.integers(0, 4),
    )
    def test_a_unit_phase_monomial_step_runs_dense_and_matches_its_fold_column(self, item, p, seed, n):
        """A permutation times unit phases keeps support one, but its phases
        round apart between BLAS and a walk, so it stays on the dense route."""
        payload = FinBasis(tuple(f"p{i}" for i in range(p)))
        src = product_basis(item, payload)
        rng = np.random.default_rng(seed)
        u = np.zeros((len(src),) * 2, dtype=np.complex128)
        u[rng.permutation(len(src)), np.arange(len(src))] = np.exp(2j * np.pi * rng.random(len(src)))
        s = Step(CMatrix(src, src, u), item, payload)
        assert s.rows is None
        m = fold_matrix(s, n)
        for label in _run_inputs(item, payload, n):
            assert_run_is_the_fold_column_bit_for_bit(run_quanta(s, label), m, label)

    @pytest.mark.parametrize("name", FOLDABLE)
    def test_the_library_steps_that_keep_support_one_are_walked(self, name):
        s = default_library().step(name)
        assert (s.rows is not None) == (name in ("id", "cnot", "ccnot"))

    @pytest.mark.parametrize("entries, rows", [
        ([[1, 0], [0, 1]], [0, 1]),
        ([[1, 1], [0, 0]], [0, 0]),  # a function, not a bijection
        ([[0, 0], [1, 1]], [1, 1]),
        ([[1, 0], [1, 1]], None),  # two entries in a column
        ([[1, 0], [0, 0]], None),  # an empty column
        ([[1, 0], [0, -1]], None),  # a phase
        ([[1, 0], [0, 1j]], None),
        ([[1, 0], [0, 2]], None),
        ([[1, 0], [0, 1 + 1e-16j]], None),
    ])
    def test_step_rows_are_recorded_only_for_one_exact_one_per_column(self, entries, rows):
        src = product_basis(FinBasis(("a",)), BIT)
        assert Step(CMatrix(src, src, np.array(entries)), FinBasis(("a",)), BIT).rows == rows

    def test_the_walk_keeps_the_list_basis_cap(self):
        step = default_library().step("cnot")
        assert step.rows is not None
        with pytest.raises(SizeLimitError, match=f"^list basis has 524286 states; capped at {MAX_LIST_STATES}$"):
            run_quanta(step, pair_label(list_label(["1"] * 17), "0"))
