import copy
import dataclasses
import itertools
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tables as rt
from label_strategies import bases
from quantakit import gates, quanta, vecmonad
from quantakit.gates import NOT_TABLE, cnot_table, had, lift, tgate
from quantakit.relalg import BIT, POINT, FinBasis, Rel, list_label, pair_label, product_basis, tag_left, tag_right
from quantakit.vecmonad import (
    PRUNE_EPS,
    AmpVec,
    CMatrix,
    KleisliOp,
    add,
    assoc_inv_op,
    assoc_op,
    bind,
    dagger,
    direct_sum,
    format_matrix,
    format_state,
    from_matrix,
    identity_matrix,
    is_unitary,
    kleisli,
    kron,
    materialize,
    matmul,
    norm,
    parse_matrix,
    ret,
    ret_op,
    scale,
    tensor,
    vec_equal,
    xl_op,
)
from reference.gates import ref_choice
from reference.vecmonad import (
    ref_add, ref_assoc_inv_op, ref_assoc_op, ref_bind, ref_direct_sum, ref_format_matrix, ref_format_state,
    ref_parse_matrix, ref_tensor, ref_xl_op,
)

BB = product_basis(BIT, BIT)


def cm(rows, src, tgt):
    return CMatrix(src, tgt, np.array(rows, dtype=complex))


amplitudes = st.complex_numbers(
    min_magnitude=0, max_magnitude=4, allow_nan=False, allow_infinity=False
)


def vec_strategy(basis):
    return st.fixed_dictionaries({x: amplitudes for x in basis}).map(AmpVec)


def op_strategy(src, tgt):
    return st.lists(
        st.lists(amplitudes, min_size=len(tgt), max_size=len(tgt)),
        min_size=len(src),
        max_size=len(src),
    ).map(
        lambda cols: from_matrix(
            CMatrix(src, tgt, np.array(cols, dtype=complex).T)
        )
    )


class TestVectors:
    def test_ret_is_point_mass(self):
        v = ret("0")
        assert v["0"] == 1 and v["1"] == 0 and v.support == {"0"}

    def test_norm_of_ret(self):
        assert norm(ret("x")) == 1.0

    def test_norm_of_hadamard_column(self):
        assert abs(norm(had().apply("0")) - 1.0) <= 1e-12

    def test_add_scale_cancel(self):
        v = AmpVec({"a": 1 + 2j, "b": -0.5})
        assert len(add(v, scale(-1, v))) == 0

    def test_prune_drops_dust(self):
        v = AmpVec({"a": 1e-13, "b": 1.0})
        assert v.support == {"b"}

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            AmpVec({"a": float("nan")})

    def test_vec_equal_tolerance(self):
        u = AmpVec({"a": 1.0})
        v = AmpVec({"a": 1.0 + 1e-10})
        assert vec_equal(u, v) and not vec_equal(u, v, tol=1e-12)


class TestMonadLaws:
    @settings(max_examples=60, deadline=None)
    @given(op_strategy(BIT, BIT), st.sampled_from(BIT.labels))
    def test_left_unit(self, f, a):
        assert vec_equal(bind(ret(a), f), f.apply(a), tol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(vec_strategy(BIT))
    def test_right_unit(self, v):
        assert vec_equal(bind(v, ret_op(BIT)), v, tol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(vec_strategy(BIT), op_strategy(BIT, BIT), op_strategy(BIT, BIT))
    def test_associativity(self, v, f, g):
        lhs = bind(bind(v, f), g)
        rhs = bind(v, KleisliOp(BIT, lambda x: bind(f.apply(x), g)))
        assert vec_equal(lhs, rhs, tol=1e-10)

    def test_bind_outside_source(self):
        with pytest.raises(KeyError) as exc:
            bind(AmpVec({"zzz": 1.0}), ret_op(BIT))
        assert exc.value.args == ("label 'zzz' outside operation source basis",)


class TestKleisli:
    def test_ret_op_is_unit(self):
        f = had()
        assert materialize(kleisli(ret_op(BIT), f), BIT).close_to(
            materialize(f, BIT), tol=0
        )

    def test_composition_is_matrix_product(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            f = from_matrix(CMatrix(BB, BB, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))))
            g = from_matrix(CMatrix(BB, BB, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))))
            lhs = materialize(kleisli(g, f), BB)
            rhs = matmul(materialize(g, BB), materialize(f, BB))
            assert lhs.close_to(rhs, tol=1e-9)

    def test_bell_block_product(self):
        b = matmul(
            materialize(lift(cnot_table(), BB), BB),
            kron(materialize(had(), BIT), identity_matrix(BIT)),
        )
        assert b.close_to(cm(rt.B_4, BB, BB), tol=1e-12)


class TestTensor:
    def test_id_tensor_hadamard(self):
        m = materialize(tensor(ret_op(BIT), had()), BB)
        assert m.close_to(cm(rt.ID_KRON_H, BB, BB), tol=1e-12)

    def test_ret_tensor_ret(self):
        m = materialize(tensor(ret_op(BIT), ret_op(BIT)), BB)
        assert m == identity_matrix(BB)

    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            mf = CMatrix(BIT, BIT, rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            mg = CMatrix(BB, BB, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            lhs = materialize(tensor(from_matrix(mf), from_matrix(mg)), product_basis(BIT, BB))
            assert lhs.close_to(kron(mf, mg), tol=1e-9)


class TestMaterialize:
    def test_hadamard_matrix(self):
        assert materialize(had(), BIT).close_to(cm(rt.H_2, BIT, BIT), tol=1e-12)

    def test_lifted_negation_is_x(self):
        assert materialize(lift(NOT_TABLE, BIT), BIT) == cm(rt.X_2, BIT, BIT)

    def test_round_trip_exact(self):
        m = materialize(tgate(), BIT)
        again = materialize(from_matrix(m), BIT)
        assert again == m

    def test_stray_label_rejected(self):
        op = KleisliOp(BIT, lambda a: ret("elsewhere"))
        with pytest.raises(KeyError):
            materialize(op, BIT)

    def test_direct_sum_blocks(self):
        m = materialize(direct_sum(had(), ret_op(BIT)), vecmonad.coproduct_basis(BIT, BIT))
        top = m.entries[:2, :2]
        assert np.allclose(top, np.array(rt.H_2))
        assert np.allclose(m.entries[2:, 2:], np.eye(2))
        assert not m.entries[:2, 2:].any() and not m.entries[2:, :2].any()


class TestUnitarity:
    def test_hadamard_unitary(self):
        assert is_unitary(materialize(had(), BIT), tol=1e-9)

    def test_dagger_of_bell_block(self):
        b = cm(rt.B_4, BB, BB)
        unb = matmul(kron(materialize(had(), BIT), identity_matrix(BIT)),
                     materialize(lift(cnot_table(), BB), BB))
        assert dagger(b).close_to(unb, tol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="^unitarity_gap requires a square matrix$"):
            is_unitary(CMatrix(BIT, FinBasis(("a",)), np.zeros((1, 2))))

    def test_t_gate_unitary_with_phase(self):
        m = materialize(tgate(), BIT)
        assert is_unitary(m, tol=1e-12)
        assert m.entries[1, 1] == pytest.approx(complex(math.cos(math.pi / 4), math.sin(math.pi / 4)))


# Cells that twelve significant digits print exactly, signed zeros among
# them, drawn with repeats so that the formatter's per-call cache is hit.
_CELL_POOL = [0j, -0j, complex(0.0, -0.0), 1, -1, 0.5 - 0.25j, 1e-3j, complex(-0.0, 0.125), 0.707106781187]


class TestFormats:
    def test_matrix_dump_round_trip(self):
        m = materialize(tgate(), BIT)
        text = format_matrix(m)
        back = parse_matrix(text)
        assert back.src == m.src and back.tgt == m.tgt
        assert np.max(np.abs(back.entries - m.entries)) < 1e-12

    def test_dump_uses_twelve_significant_digits(self):
        m = materialize(had(), BIT)
        assert "0.707106781187+0i" in format_matrix(m)

    def test_negative_zero_normalized(self):
        m = CMatrix(BIT, BIT, np.array([[1.0, 0.0], [0.0, -0.0]]))
        assert "-0" not in format_matrix(m)
        # Signed zeros compare equal, so the per-call cache meets them as
        # one key: each must print 0+0i whichever of them comes first.
        zeros = [0j, -0j, complex(-0.0, 0.0), complex(0.0, -0.0)]
        for row in itertools.permutations(zeros):
            m = CMatrix(BB, FinBasis(("r",)), np.array([row]))
            assert format_matrix(m) == "(0,0) (0,1) (1,0) (1,1)\nr: 0+0i 0+0i 0+0i 0+0i\n"
        # A ket holds no zero amplitude, so its signed zeros sit beside a
        # nonzero part, and a zero amplitude in the basis prints no line.
        v = AmpVec({"(0,0)": complex(0.5, -0.0), "(0,1)": complex(0.5, 0.0),
                    "(1,0)": complex(-0.0, 0.5), "(1,1)": complex(0.0, 0.5)})
        assert format_state(v, BB) == "(0,0): 0.5+0i\n(0,1): 0.5+0i\n(1,0): 0+0.5i\n(1,1): 0+0.5i\n"
        assert format_state(AmpVec({"(1,1)": -1.0}), BB) == "(1,1): -1+0i\n"

    def test_state_format_in_basis_order(self):
        v = AmpVec({"(1,1)": -0.5, "(0,0)": 0.5})
        text = format_state(v, BB)
        assert text == "(0,0): 0.5+0i\n(1,1): -0.5+0i\n"

    @settings(max_examples=50, deadline=None)
    @given(bases(1, 4))
    def test_matrix_dump_round_trip_on_built_labels(self, basis):
        m = identity_matrix(basis)
        assert parse_matrix(format_matrix(m)) == m

    @pytest.mark.parametrize(
        "text, label",
        [
            ("a,b c\na,b: 1+0i 0+0i\nc: 0+0i 1+0i\n", "a,b"),
            ("s0 (s1\ns0: 1+0i 0+0i\n(s1: 0+0i 1+0i\n", "(s1"),
            ("s0 s1\ns0: 1+0i 0+0i\n[s1): 0+0i 1+0i\n", "[s1)"),
        ],
    )
    def test_malformed_labels_are_named(self, text, label):
        with pytest.raises(ValueError, match=re.escape(f"malformed label {label!r}")):
            parse_matrix(text)

    @pytest.mark.parametrize("cell", ["1i", "1+0", "x+0i", "1+xi"])
    def test_malformed_amplitudes_are_named(self, cell):
        text = f"s0 s1\ns0: 1+0i 0+0i\ns1: {cell} {cell}\n"
        with pytest.raises(ValueError, match=re.escape(f"malformed amplitude: {cell!r}")):
            parse_matrix(text)

    def test_repeated_cells_parse_alike(self):
        m = CMatrix(BB, BB, np.full((4, 4), 0.5 - 0.25j))
        assert parse_matrix(format_matrix(m)) == m

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda k: st.lists(st.lists(st.sampled_from(_CELL_POOL), min_size=k, max_size=k), min_size=1, max_size=5)
    ))
    def test_matrix_dump_round_trip_on_repeated_cells(self, rows):
        src = FinBasis(tuple(f"s{j}" for j in range(len(rows[0]))))
        tgt = FinBasis(tuple(f"r{i}" for i in range(len(rows))))
        m = CMatrix(src, tgt, np.array(rows, dtype=np.complex128))
        assert parse_matrix(format_matrix(m)) == m


# Parts that print alike but differ in bits (the signed zeros), parts that
# are not finite, and a few ordinary ones, so that cells repeat.
_PRINT_PARTS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1.0, -0.5, 1 / 3, 1e-300, 2.5e17]
print_cells = st.builds(complex, st.sampled_from(_PRINT_PARTS), st.sampled_from(_PRINT_PARTS)) | st.complex_numbers(
    allow_nan=True, allow_infinity=True)


@st.composite
def printed_matrices(draw) -> CMatrix:
    """Matrices of 0-6 rows and 0-6 columns, their cells drawn from a small
    pool of each draw so that they repeat; 0x0, 0xn and nx0 among them."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    pool = draw(st.lists(print_cells, min_size=1, max_size=6))
    cells = draw(st.lists(st.sampled_from(pool), min_size=rows * cols, max_size=rows * cols))
    entries = np.array(cells, dtype=np.complex128).reshape(rows, cols)
    return CMatrix(FinBasis(tuple(f"c{j}" for j in range(cols))), FinBasis(tuple(f"r{i}" for i in range(rows))), entries)


class TestPrintersAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(printed_matrices())
    def test_format_matrix_prints_what_the_reference_prints(self, m):
        assert format_matrix(m) == ref_format_matrix(m)

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 3), (1, 1), (0, 600), (600, 0)])
    def test_format_matrix_on_empty_and_one_cell_shapes(self, shape):
        m = CMatrix(FinBasis(tuple(f"c{j}" for j in range(shape[1]))), FinBasis(tuple(f"r{i}" for i in range(shape[0]))),
                    np.zeros(shape, dtype=np.complex128))
        assert format_matrix(m) == ref_format_matrix(m)

    def test_each_nan_cell_keeps_its_own_text(self):
        cells = [complex(math.nan, 1), complex(math.nan, -1), complex(1, math.nan), complex(-math.nan, math.inf),
                 complex(math.nan, math.nan), complex(math.inf, -math.inf), complex(-0.0, math.nan), -0j, 0j]
        rows = [cells, cells[::-1]] * 30
        m = CMatrix(FinBasis(tuple(f"c{j}" for j in range(len(cells)))), FinBasis(tuple(f"r{i}" for i in range(len(rows)))),
                    np.array(rows, dtype=np.complex128))
        assert format_matrix(m) == ref_format_matrix(m)

    @pytest.mark.parametrize("step", ["bell", "unbell", "cond", "alice", "cnot", "ccnot"])
    def test_folds_print_as_the_reference_prints(self, step):
        for maxlen in range(3 if step in ("alice", "ccnot") else 5):
            m = quanta.fold_matrix(gates.default_library().step(step), maxlen)
            assert format_matrix(m) == ref_format_matrix(m)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["bell", "unbell", "cond", "alice", "cnot", "ccnot"]), st.data())
    def test_kets_of_run_quanta_print_as_the_reference_prints(self, step, data):
        s = gates.default_library().step(step)
        items = data.draw(st.lists(st.sampled_from(s.item.labels), max_size=7))
        label = pair_label(list_label(items), data.draw(st.sampled_from(s.payload.labels)))
        v = quanta.run_quanta(s, label)
        assert format_state(v) == ref_format_state(v)
        basis = quanta.ListBasis(len(items), s.item, s.payload).basis
        assert format_state(v, basis) == ref_format_state(v, basis)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "(0,1)", "[1]", "c"]), st.sampled_from(_CELL_POOL) | amplitudes)),
           st.lists(st.sampled_from(["a", "b", "(0,1)", "[1]", "c", "d"]), unique=True))
    def test_random_kets_print_as_the_reference_prints(self, pairs, basis):
        v = AmpVec(pairs)
        assert format_state(v) == ref_format_state(v)
        assert format_state(v, basis) == ref_format_state(v, basis)


class TestLift:
    def test_gates_uses_the_one_lift(self):
        assert gates.lift is lift is vecmonad.lift

    def test_function_and_table_lift_alike(self):
        by_table = materialize(lift(cnot_table(), BB), BB)
        by_function = materialize(lift(lambda l: cnot_table()[l], BB), BB)
        assert by_table == by_function == cm(rt.CNOT_4, BB, BB)

    def test_partial_table_names_the_missing_label(self):
        with pytest.raises(ValueError, match="partial table, missing '1'"):
            lift({"0": "1"}, BIT)


# ---------------------------------------------------------------------------
# The structural maps against their label-level references


class TestStructuralMapsAgainstReference:
    @pytest.mark.parametrize(
        "new, ref",
        [(xl_op, ref_xl_op), (assoc_op, ref_assoc_op), (assoc_inv_op, ref_assoc_inv_op)],
        ids=["xl", "assoc", "assoc_inv"],
    )
    @settings(max_examples=60, deadline=None)
    @given(a=bases(), b=bases(), c=bases())
    def test_same_image_of_every_label(self, new, ref, a, b, c):
        got, want = new(a, b, c), ref(a, b, c)
        assert got.src == want.src
        for label in want.src:
            assert dict(got.apply(label).items()) == dict(want.apply(label).items())


# ---------------------------------------------------------------------------
# Operator results that skip re-validation.


def _built(make, *args) -> list[tuple[str, str, str]] | str:
    """Items in order with the exact bits of each part, or the error text."""
    try:
        v = make(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return [(k, a.real.hex(), a.imag.hex()) for k, a in v.items()]


_EDGE = [0.0, -0.0, PRUNE_EPS, -PRUNE_EPS, PRUNE_EPS / 3, -PRUNE_EPS / 3, 1.0, -2.5, math.nan, math.inf, -math.inf]
_parts = st.one_of(st.sampled_from(_EDGE), st.floats(-4, 4))

# Finite parts up to overflow, so that finite terms can sum to infinity.
_big_parts = st.one_of(st.sampled_from([x for x in _EDGE if math.isfinite(x)]), st.floats(-4, 4),
                       st.sampled_from([1e308, -1e308, 1.5e308, PRUNE_EPS / 2, 0.9 * PRUNE_EPS]))


@st.composite
def sums(draw) -> dict[str, complex]:
    """Label -> sum of terms, each sum started from ``0j`` as ``bind`` starts it."""
    acc: dict[str, complex] = {}
    terms = st.tuples(st.sampled_from("abcd"), st.builds(complex, _big_parts, _parts))  # NaN and inf too
    for label, term in draw(st.lists(terms, max_size=10)):
        acc[label] = acc.get(label, 0j) + term
    return acc


_EDGE_SUMS = {
    "at the prune epsilon": {"a": 0j + PRUNE_EPS, "b": 0j - 1j * PRUNE_EPS},
    "below the prune epsilon": {"a": 0j + PRUNE_EPS / 2, "b": 0j + 1, "c": 0j - 0.99 * PRUNE_EPS},
    "cancelled to zero": {"a": 0j + 1 - 1, "b": 0j - 0.0},
    "nan": {"a": 0j + 1, "b": 0j + complex(math.nan, 0)},
    "inf": {"a": 0j + complex(0, math.inf)},
    "inf and -inf": {"a": 0j + math.inf, "b": 0j - math.inf},
    "finite terms whose sum overflows": {"a": 0j + 1e308 + 1e308},
    "finite sums whose total overflows": {"a": 0j + 1e308, "b": 0j + 1e308},
}
_RAISES = {"nan": "b", "inf": "a", "inf and -inf": "a", "finite terms whose sum overflows": "a"}


def _outcome(make, *args) -> list[tuple[str, str, str]] | str:
    """``_built``, naming an OverflowError too: the magnitude of a finite
    amplitude can overflow, in the checked constructor as in the summed path."""
    try:
        return _built(make, *args)
    except OverflowError as exc:
        return f"OverflowError: {exc}"


class TestSummedKets:
    @pytest.mark.parametrize("case", list(_EDGE_SUMS))
    def test_edge_sums(self, case):
        got = _outcome(AmpVec._trusted, dict(_EDGE_SUMS[case]))
        assert got == _outcome(AmpVec, dict(_EDGE_SUMS[case]))
        if case in _RAISES:
            assert got == f"ValueError: non-finite amplitude at {_RAISES[case]!r}"
        else:
            assert isinstance(got, list)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), src=bases(), tgt=bases())
    def test_from_matrix_returns_the_same_ket_on_every_call(self, data, src, tgt):
        cells = st.lists(st.builds(complex, _parts, _parts), min_size=len(tgt), max_size=len(tgt))
        cols = data.draw(st.lists(cells, min_size=len(src), max_size=len(src)))
        f = from_matrix(CMatrix(src, tgt, np.array(cols, dtype=complex).T))
        for label in data.draw(st.permutations(src.labels * 2)):
            first = _outcome(f.apply, label)
            assert _outcome(f.apply, label) == first
            if isinstance(first, list):
                assert f.apply(label) is f.apply(label)


# Parts for the trusted builds: signed zeros, NaN, infinities, subnormals,
# values on both sides of the prune epsilon, finite values whose products
# or sums overflow, and 1.7e308, whose magnitude with two such parts overflows;
# and cells whose one zero part is -0.0, which the builds print as +0.0.
_TRUSTED_EDGE = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308, PRUNE_EPS, -PRUNE_EPS,
    PRUNE_EPS * (1 - 2**-53), PRUNE_EPS * (1 + 2**-52), PRUNE_EPS / 3, 1e308, -1e308, 1.7e308, 1.0, -2.5,
]
_trusted_parts = st.one_of(st.sampled_from(_TRUSTED_EDGE), st.floats(-4, 4))
_trusted_cells = st.one_of(st.builds(complex, _trusted_parts, _trusted_parts),
                           st.sampled_from([complex(1.7e308, -1.7e308), complex(1.0, -0.0), complex(-0.0, -2.5)]))


class TestTrustedBuilds:
    """Every ket the library builds from values it computed skips the
    per-entry loop, and equals what the checked constructor builds from the
    same values, item for item and bit for bit, or raises the same error."""

    @settings(max_examples=600, deadline=None)
    @given(amps=st.one_of(sums(), st.dictionaries(st.sampled_from("abcd"), st.one_of(_trusted_cells, _trusted_parts))))
    def test_the_builder_against_the_checked_constructor(self, amps):
        """Sums started from ``0j``, as ``bind`` and ``add`` build them, and
        dicts of edge values, complex or float."""
        assert _outcome(AmpVec._trusted, dict(amps)) == _outcome(AmpVec, dict(amps))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), src=bases(), tgt=bases())
    def test_each_operator_against_its_checked_build(self, data, src, tgt):
        def matrix(a, b):
            cells = data.draw(st.lists(_trusted_cells, min_size=len(a) * len(b), max_size=len(a) * len(b)))
            return CMatrix(a, b, np.array(cells, dtype=complex).reshape(len(b), len(a)))

        fm, gm = matrix(src, tgt), matrix(src, tgt)
        f, g, h = from_matrix(fm), from_matrix(gm), from_matrix(matrix(src, src))
        cases = [(f.apply, lambda x: AmpVec(zip(tgt.labels, fm.entries[:, src.index(x)].tolist())), x) for x in src]
        cases += [(tensor(f, g).apply, ref_tensor(f, g).apply, pair_label(x, y)) for x in src for y in src]
        cases += [(direct_sum(f, g).apply, ref_direct_sum(f, g).apply, tag(x))
                  for tag in (tag_left, tag_right) for x in src]
        cases += [(gates.choice(f, g).apply, ref_choice(f, g).apply, pair_label(b, x)) for b in BIT for x in src]
        for got, want, label in cases:
            assert _outcome(got, label) == _outcome(want, label), label
        kets = {op: [op.apply(x) for x in src if isinstance(_outcome(op.apply, x), list)] for op in (f, g, h)}
        for u, v in itertools.product(kets[f] + kets[g], repeat=2):
            assert _outcome(add, u, v) == _outcome(ref_add, u, v)
        for v in kets[h]:
            assert _outcome(bind, v, f) == _outcome(ref_bind, v, f)


class TestMatrixOperatorsSkipRevalidation:
    """Only this test kills the mutant of ``dagger`` that transposes without
    conjugating: every other dagger in the tests and checks is of a real matrix."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), a=bases(), b=bases(), c=bases())
    def test_each_operator_equals_the_public_construction(self, data, a, b, c):
        def matrix(src, tgt):
            cells = data.draw(st.lists(st.builds(complex, st.floats(-4, 4), st.floats(-4, 4)),
                                       min_size=len(src) * len(tgt), max_size=len(src) * len(tgt)))
            return CMatrix(src, tgt, np.array(cells, dtype=complex).reshape(len(tgt), len(src)))

        x, y = matrix(a, b), matrix(b, c)
        got = {"matmul": matmul(y, x), "kron": kron(x, y), "dagger": dagger(x)}
        want = {
            "matmul": CMatrix(a, c, y.entries @ x.entries),
            "kron": CMatrix(product_basis(a, b), product_basis(b, c), np.kron(x.entries, y.entries)),
            "dagger": CMatrix(b, a, x.entries.conj().T),
        }
        for name, m in got.items():
            assert m == want[name], name
            assert m.entries.dtype == np.complex128 and not m.entries.flags.writeable, name


# ---------------------------------------------------------------------------
# The typed-matrix contract that ``Rel`` and ``CMatrix`` share: what the
# checked constructor does to its matrix, and how values compare, hash,
# print and take replacements.

@pytest.mark.parametrize("cls, dtype", [(Rel, np.bool_), (CMatrix, np.complex128)], ids=["Rel", "CMatrix"])
class TestTypedMatrixContract:
    def test_a_shape_that_does_not_match_the_bases_is_named(self, cls, dtype):
        with pytest.raises(ValueError) as exc:
            cls(BIT, BB, np.zeros((3, 2)))
        assert str(exc.value) == "matrix shape (3, 2) does not match bases 4x2"

    def test_the_matrix_is_copied_on_construct(self, cls, dtype):
        raw = np.eye(2, dtype=dtype)
        m = cls(BIT, BIT, raw)
        raw[0, 1] = 1
        assert m.entries.tolist() == np.eye(2, dtype=dtype).tolist()

    def test_entries_are_coerced_to_the_class_dtype(self, cls, dtype):
        m = cls(BIT, BIT, [[2, 0], [0, 1]])
        assert m.entries.dtype == dtype
        assert m.entries.tolist() == np.array([[2, 0], [0, 1]]).astype(dtype).tolist()

    def test_entries_are_read_only(self, cls, dtype):
        m = cls(BIT, BIT, np.eye(2))
        assert not m.entries.flags.writeable
        with pytest.raises(ValueError):
            m.entries[0, 1] = 1

    def test_values_are_frozen_and_unhashable(self, cls, dtype):
        m = cls(BIT, BIT, np.eye(2))
        with pytest.raises(TypeError):
            hash(m)
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.src = POINT
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.note = "x"

    def test_copy_deepcopy_and_pickle_keep_the_value(self, cls, dtype):
        m = cls(BIT, BB, np.arange(8).reshape(4, 2))
        for d in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert type(d) is cls and d == m and d.entries.dtype == dtype and not d.entries.flags.writeable

    def test_replace_checks_again(self, cls, dtype):
        m = cls(BIT, BIT, np.eye(2))
        with pytest.raises(ValueError, match=r"^matrix shape \(1, 2\) does not match bases 2x2$"):
            dataclasses.replace(m, entries=np.ones((1, 2)))
        r = dataclasses.replace(m, tgt=POINT, entries=np.ones((1, 2), dtype=np.int64))
        assert type(r) is cls and r.entries.dtype == dtype and not r.entries.flags.writeable

    def test_repr_names_the_class_and_its_fields(self, cls, dtype):
        assert repr(cls(BIT, POINT, np.ones((1, 2)))).startswith(
            f"{cls.__name__}(src=FinBasis(labels=('0', '1')), tgt=FinBasis(labels=('*',)), entries=array("
        )

    def test_equal_to_the_same_entries_over_the_same_bases(self, cls, dtype):
        m = cls(BIT, BIT, np.eye(2))
        assert m == cls(BIT, BIT, np.eye(2, dtype=np.int64)) and not m != cls(BIT, BIT, np.eye(2))
        assert m != cls(BIT, BIT, np.ones((2, 2)))
        assert m != cls(BIT, FinBasis(("a", "b")), np.eye(2))
        assert m != ((1, 0), (0, 1)) and m.__eq__(((1, 0), (0, 1))) is NotImplemented


def test_a_relation_and_a_complex_matrix_are_never_equal():
    r, c = Rel(BIT, BIT, np.eye(2)), CMatrix(BIT, BIT, np.eye(2))
    assert r != c and c != r and not r == c
    assert r.__eq__(c) is NotImplemented and c.__eq__(r) is NotImplemented


# ---------------------------------------------------------------------------
# Matrix dumps against the reference parser

_FAST_CELLS = ("0+0i", "1+0i")
_NEAR_CELLS = ("0+1i", "1+1i", "1-0i", "-0+0i", "0+0e0i", "10+0i")
_OTHER_CELLS = ("0.5-1i", "-0+0i", "0-0i", "1+0e0i", "1e400+0i", "nan+0i", "1", "x+0i", "0+0j", "01+0i", "1+0i1+0i")
_ROW_LABELS = ("r0", "r1", "r2", "c0", "(r,3)", "a,b", "(r", "")


@st.composite
def matrix_dumps(draw) -> str:
    """Dumps whose rows are mostly single-spaced ``0+0i``/``1+0i`` cells,
    and otherwise hold cells a character or two away from those, other or
    malformed cells, a wrong cell count, other
    blanks between cells, a repeated or malformed label, or no ``: ``."""
    n = draw(st.integers(1, 4))
    header = " ".join(f"c{j}" for j in range(n))
    if draw(st.integers(0, 5)) == 0:
        header = draw(st.sampled_from(["c0 c0", "c0 (c1", " c0  c1 "]))
    width = len(header.split())
    lines = [header]
    for i in range(draw(st.integers(0, 5))):
        label = draw(st.sampled_from(_ROW_LABELS)) if draw(st.integers(0, 5)) == 0 else f"r{i}"
        kind = draw(st.sampled_from(("fast", "fast", "fast", "near", "other", "count", "blanks", "no colon")))
        count = width + draw(st.sampled_from((-1, 1))) if kind == "count" else width
        pool = {"near": _FAST_CELLS + _NEAR_CELLS, "other": _FAST_CELLS + _OTHER_CELLS}.get(kind, _FAST_CELLS)
        cells = draw(st.lists(st.sampled_from(pool), min_size=max(count, 0), max_size=max(count, 0)))
        sep = draw(st.sampled_from(("  ", "\t", "  "))) if kind == "blanks" else " "
        rest = sep.join(cells) + (draw(st.sampled_from(("", " ", "\t"))) if kind == "blanks" else "")
        lines.append(f"{label} {rest}" if kind == "no colon" else f"{label}: {rest}")
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(("", "   "))))
    return "\n".join(lines) + "\n"


def _dump_outcome(parse, text):
    """Bases and the exact bits of the entries, or the error type and text."""
    try:
        m = parse(text)
    except (ValueError, KeyError) as exc:
        return type(exc), str(exc)
    return m.src, m.tgt, m.entries.shape, m.entries.dtype, m.entries.tobytes()


class TestParseMatrixAgainstReference:
    @settings(max_examples=500, deadline=None)
    @given(matrix_dumps())
    def test_same_matrix_or_same_error(self, text):
        assert _dump_outcome(parse_matrix, text) == _dump_outcome(ref_parse_matrix, text)

    @pytest.mark.parametrize(
        "text",
        [
            "c0 c1\n",
            "c0\nr0: 1+0i\nr1: 0+0i\n",
            "c0 c1\nr0: 1+0i 0+0i \nr1: 0+0i  1+0i\n",
            "c0 c1\nr0: 1+0i 1+0i 0+0i\n",
            "c0 c1\n(r: 1+0i 0+0i\nr1: 1+0i\n",
            "c0 c1\nr0: 1+0i x+0i\n(r: 1+0i 0+0i\n",
            "c0 c1\nr0: 1+0i 0+0i\nr0: 0+0i 1+0i\n",
            "c0 c1\nr0: -0+0i 0-0i\nr1: 0+0i 1+0i\n",
            "c0 c1\nr0: 0+1i 1+0i\nr1: 1+1i 0+0i\n",
            "c0 c1\nr0: 1-0i 0+0i\nr1: 0+0i 10+0i\n",
            # 0/1 rows before and after a row that does not fit.
            "c0 c1\nr0: 1+0i 0+0i\nr1: 0.5+0i 0+0i\nr2: 0+0i 1+0i\nr3: 1+0i 1+0i\n",
            "c0 c1\nr0: 0+1i 0+0i\nr1: 1+0i 0+0i\nr2: 0+0i 1+0\u00ef\n",
            "c0 c1\nr0: 1+0i 0+0i\nr1: 0+0i 1+0\u00ef\nr2: 0+0i 1+0i\n",
            "c0 c1\nr0: 1+0i 0+0i\nr1: 0+0i 0+1i\nr2: 0+0i 1+0i\n",
            "c0 c1\nr0: 1+0i 0+0i\nr1: 0+0i 1+0i 0+0i\nr2: 0+0i 1+0i\n",
            "c0 c1\nr0: 1+0i 0+0i\n(r: 1+0i 0+0i\nr2: 0+0i 1+0i\n",
            "c0 c1\nr0: 0+0i 1+0i\nr1 1+0i 0+0i\n",
            "c0 c1\nr0: 0+0i 1+0i\nr1: 1+0i 0+0i\nr0: 1+0i 0+0i\n",
            # Capital-E exponents, before either sign of a cell.
            "c0 c1\nr0: 0+2E-5i -2.5E+3-1E-07i\nr1: 1+0i 0+0i\n",
        ],
    )
    def test_fast_rows_beside_every_error(self, text):
        assert _dump_outcome(parse_matrix, text) == _dump_outcome(ref_parse_matrix, text)

    def test_a_permutation_dump_reads_back(self):
        perm = np.random.default_rng(5).permutation(32)
        m = CMatrix(FinBasis(tuple(f"s{j}" for j in range(32))), FinBasis(tuple(f"s{j}" for j in range(32))),
                    np.eye(32, dtype=np.complex128)[perm])
        text = format_matrix(m)
        assert parse_matrix(text) == m
        assert _dump_outcome(parse_matrix, text) == _dump_outcome(ref_parse_matrix, text)


# ---------------------------------------------------------------------------
# Finite amplitudes whose magnitude overflows.

_HUGE = complex(1.7e308, 1.7e308)  # finite, but abs() overflows


class TestOverflowingAmplitudes:
    def test_the_constructor_names_the_label(self):
        with pytest.raises(ValueError, match=r"^amplitude magnitude overflows at 'b'$"):
            AmpVec({"a": 1.0, "b": _HUGE})
        with pytest.raises(ValueError, match=r"^amplitude magnitude overflows at 'c'$"):
            AmpVec([("a", 1.0), ("c", 10 ** 400)])

    def test_an_overflow_inside_the_callers_iterator_is_left_alone(self):
        def items():
            yield "a", 1.0
            yield "b", float(10 ** 400)

        with pytest.raises(OverflowError):
            AmpVec(items())

    def test_a_repeated_label_whose_sum_overflows_is_named(self):
        with pytest.raises(ValueError, match=r"^non-finite amplitude at 'a'$"):
            AmpVec([("a", 1e308), ("b", 1.0), ("a", 1e308)])
        with pytest.raises(ValueError, match=r"^amplitude magnitude overflows at 'a'$"):
            AmpVec([("a", complex(1e308, 1e308)), ("a", complex(5e307, 5e307))])

    def test_summed_kets_name_the_label(self):
        with pytest.raises(ValueError, match=r"^amplitude magnitude overflows at 'b'$"):
            AmpVec._trusted({"a": 0j + 1, "b": 0j + _HUGE})

    def test_bind_names_the_label(self):
        f = KleisliOp(BIT, lambda label: AmpVec({"o": 1 + 1.5j}))
        with pytest.raises(ValueError, match=r"^amplitude magnitude overflows at 'o'$"):
            bind(AmpVec({"0": 1e308}), f)

    def test_nan_and_inf_keep_their_text(self):
        for a in (complex(math.nan, 0), complex(0, math.inf)):
            with pytest.raises(ValueError, match=r"^non-finite amplitude at 'a'$"):
                AmpVec({"a": a})
            with pytest.raises(ValueError, match=r"^non-finite amplitude at 'a'$"):
                AmpVec._trusted({"a": 0j + a})


# ---------------------------------------------------------------------------
# The array form of the constructor against the per-entry loop, and the
# ket printed in its own order.

_HUGE_PART = 1.7e308  # finite; a magnitude with two such parts overflows
_array_parts = st.one_of(
    st.sampled_from(_EDGE + [PRUNE_EPS * (1 + 2**-52), PRUNE_EPS * (1 - 2**-53), _HUGE_PART, 1e308]),
    st.floats(-4, 4),
    st.floats(PRUNE_EPS / 2, 2 * PRUNE_EPS),
)
# Parts that leave no doubt, so that long arrays of them take the NumPy passes.
_clear_parts = st.one_of(
    st.sampled_from([0.0, -0.0, PRUNE_EPS / 3, -3 * PRUNE_EPS, 1e307]),
    st.floats(-4, 4),
    st.floats(PRUNE_EPS / 2, 2 * PRUNE_EPS),
)


@st.composite
def labelled_arrays(draw) -> tuple[list[str], np.ndarray]:
    """Labels, repeating in some arrays, and a complex128 array of
    amplitudes, on both sides of the length that takes the NumPy passes."""
    n = draw(st.integers(0, vecmonad._BULK_MIN + 16))
    if draw(st.booleans()):
        labels = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    else:
        labels = [f"s{i}" for i in draw(st.permutations(range(n)))]
    part = draw(st.sampled_from([_array_parts, _clear_parts]))
    parts = draw(st.lists(st.tuples(part, part), min_size=n, max_size=n))
    return labels, np.array([complex(re, im) for re, im in parts], dtype=np.complex128).reshape(n)


class TestArrayForm:
    @settings(max_examples=200, deadline=None)
    @given(case=labelled_arrays())
    def test_same_items_order_sign_bits_errors_and_print_as_the_loop(self, case):
        labels, arr = case
        want = _outcome(AmpVec, zip(labels, arr.tolist()))
        assert _outcome(AmpVec, labels, arr) == want
        bulk = vecmonad._bulk_store(labels, arr)
        if bulk is not None:  # the NumPy passes, at any length
            assert [(k, a.real.hex(), a.imag.hex()) for k, a in bulk.items()] == want
        if isinstance(want, list):
            v = AmpVec(labels, arr)
            assert format_state(v) == format_state(v, [x for x, _ in v.items()])

    def test_clean_arrays_skip_the_loop_and_doubtful_ones_take_it(self):
        arr = np.array([0.5, -0.0 - 0.5j, PRUNE_EPS / 4, 1j], dtype=np.complex128)
        assert vecmonad._bulk_store(["a", "b", "c", "d"], arr) == {"a": 0.5, "b": -0.5j, "d": 1j}
        assert vecmonad._bulk_store(["a", "b", "c", "b"], arr) is None  # a kept label repeats
        assert vecmonad._bulk_store(["a", "b", "c", "c"], arr) == {"a": 0.5, "b": -0.5j, "c": 1j}
        for bad in (math.nan, math.inf, complex(_HUGE_PART, _HUGE_PART), PRUNE_EPS):
            assert vecmonad._bulk_store(["a", "b"], np.array([1, bad], dtype=np.complex128)) is None

    def test_repeated_labels_sum_and_small_entries_drop(self):
        v = AmpVec(["a", "b", "a", "c"], np.array([0.25, 1, 0.5j, PRUNE_EPS / 2], dtype=np.complex128))
        assert list(v.items()) == [("a", 0.25 + 0.5j), ("b", 1)]
        v = AmpVec(["a", "a"], np.array([1, -1 + PRUNE_EPS / 4], dtype=np.complex128))
        assert list(v.items()) == []

    def test_negative_zero_parts_print_as_positive_zero(self):
        v = AmpVec(["a"], np.array([complex(-0.0, -1.0)]))
        assert [(a.real.hex(), a.imag.hex()) for _, a in v.items()] == [((0.0).hex(), (-1.0).hex())]

    def test_faults_keep_their_text(self):
        for a, fault in ((math.nan, "non-finite amplitude"), (complex(0, -math.inf), "non-finite amplitude"),
                         (complex(_HUGE_PART, _HUGE_PART), "amplitude magnitude overflows")):
            with pytest.raises(ValueError, match=rf"^{fault} at 'b'$"):
                AmpVec(["a", "b"], np.array([1, a], dtype=np.complex128))

    @pytest.mark.parametrize("values", [np.zeros(3), np.zeros(2, dtype=np.complex128), [0j, 0j, 0j],
                                        np.zeros((3, 1), dtype=np.complex128)])
    def test_the_array_must_be_one_complex128_amplitude_per_label(self, values):
        with pytest.raises(ValueError, match="one complex128 amplitude per label"):
            AmpVec(["a", "b", "c"], values)
