import numpy as np
import pytest

import reference_tables as rt
from quantakit import relalg
from quantakit.gates import (
    NOT_TABLE,
    GateLibrary,
    alice,
    bell,
    ccnot_table,
    choice,
    cnot_table,
    cond,
    default_library,
    had,
    lift,
    mccarthy,
    tgate,
    unbell,
    xor_table,
)
from quantakit.relalg import BIT, product_basis
from quantakit.vecmonad import (
    CMatrix,
    assoc_inv_op,
    assoc_op,
    dagger,
    from_matrix,
    identity_matrix,
    is_unitary,
    kron,
    materialize,
    matmul,
    ret_op,
    tensor,
    unitarity_gap,
)

BB = product_basis(BIT, BIT)
B8 = product_basis(BIT, BB)


def cm(rows, basis):
    return CMatrix(basis, basis, np.array(rows, dtype=complex))


def random_unitary_op(rng, basis):
    n = len(basis)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return from_matrix(CMatrix(basis, basis, q))


class TestLift:
    def test_lifted_not_is_x(self):
        assert materialize(lift(NOT_TABLE, BIT), BIT) == cm(rt.X_2, BIT)

    def test_lifted_cnot_matrix(self):
        assert materialize(lift(cnot_table(), BB), BB) == cm(rt.CNOT_4, BB)

    def test_lift_identity_is_ret(self):
        m = materialize(lift({"0": "0", "1": "1"}, BIT), BIT)
        assert m == identity_matrix(BIT)

    def test_partial_table_rejected(self):
        with pytest.raises(ValueError):
            lift({"0": "1"}, BIT)


class TestPrimitive:
    def test_hadamard_entries(self):
        assert materialize(had(), BIT).close_to(cm(rt.H_2, BIT), tol=1e-12)

    def test_hadamard_self_inverse(self):
        m = materialize(had(), BIT)
        assert matmul(m, m).close_to(identity_matrix(BIT), tol=1e-12)

    def test_t_eighth_power_is_identity(self):
        t = materialize(tgate(), BIT)
        acc = identity_matrix(BIT)
        for _ in range(8):
            acc = matmul(t, acc)
        assert acc.close_to(identity_matrix(BIT), tol=1e-9)


class TestBellBlocks:
    def test_bell_matrix(self):
        assert materialize(bell(), BB).close_to(cm(rt.B_4, BB), tol=1e-12)

    def test_unbell_is_dagger_of_bell(self):
        assert materialize(unbell(), BB).close_to(
            dagger(materialize(bell(), BB)), tol=1e-12
        )

    def test_alice_unitary_and_factored(self):
        m = materialize(alice(), B8)
        assert is_unitary(m, tol=1e-9)
        a = materialize(assoc_op(BIT, BIT, BIT), product_basis(BB, BIT))
        a_inv = materialize(assoc_inv_op(BIT, BIT, BIT), B8)
        b = cm(rt.B_4, BB)
        oracle = matmul(
            a_inv,
            matmul(
                kron(dagger(b), identity_matrix(BIT)),
                matmul(a, kron(identity_matrix(BIT), b)),
            ),
        )
        assert m.close_to(oracle, tol=1e-12)


class TestChoice:
    def test_cnot_as_choice(self):
        got = materialize(
            choice(lift({"0": "0", "1": "1"}, BIT), lift(NOT_TABLE, BIT)), BB
        )
        assert got == cm(rt.CNOT_4, BB)

    def test_same_branch_collapses_to_tensor(self):
        for table in ({"0": "0", "1": "1"}, NOT_TABLE, {"0": "0", "1": "0"}):
            f = lift(table, BIT)
            lhs = materialize(choice(f, f), BB)
            rhs = materialize(tensor(ret_op(BIT), f), BB)
            assert lhs == rhs

    def test_branch_basis_mismatch(self):
        with pytest.raises(ValueError):
            choice(lift(NOT_TABLE, BIT), ret_op(BB))

    def test_classical_bijections_give_permutations(self):
        for f_tab in ({"0": "0", "1": "1"}, NOT_TABLE):
            for g_tab in ({"0": "0", "1": "1"}, NOT_TABLE):
                m = materialize(choice(lift(f_tab, BIT), lift(g_tab, BIT)), BB)
                ones = np.abs(m.entries - 1) < 1e-12
                assert ones.sum(axis=0).tolist() == [1, 1, 1, 1]
                assert ones.sum(axis=1).tolist() == [1, 1, 1, 1]


class TestMcCarthy:
    def test_cond_matrix(self):
        assert materialize(cond(), BB).close_to(cm(rt.COND_4, BB), tol=1e-12)

    def test_cond_equals_spelled_out_guard(self):
        got = materialize(mccarthy(had(), lift(NOT_TABLE, BIT), had()), BB)
        assert got.close_to(cm(rt.COND_4, BB), tol=1e-12)

    def test_identity_guard_reduces_to_choice(self):
        rng = np.random.default_rng(4)
        f = random_unitary_op(rng, BIT)
        g = random_unitary_op(rng, BIT)
        lhs = materialize(mccarthy(ret_op(BIT), f, g), BB)
        rhs = materialize(choice(g, f), BB)
        assert lhs.close_to(rhs, tol=1e-12)

    def test_unitary_closure(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = random_unitary_op(rng, BIT)
            f = random_unitary_op(rng, BIT)
            g = random_unitary_op(rng, BIT)
            assert is_unitary(materialize(mccarthy(p, f, g), BB), tol=1e-9)


class TestLibrary:
    def test_default_names(self):
        lib = default_library()
        for name in ("x", "h", "t", "cnot", "ccnot", "bell", "unbell", "alice", "cond"):
            assert name in lib

    def test_all_registered_gates_unitary(self):
        lib = default_library()
        for name in lib.names():
            assert is_unitary(lib.matrix(name), tol=1e-9)

    def test_matrix_is_the_one_registration_checked(self):
        lib = default_library()
        for name in lib.names():
            op = lib.op(name)
            assert lib.matrix(name) is lib.matrix(name)
            assert lib.matrix(name) == materialize(op, op.src)

    def test_the_unitarity_gap_is_measured_once_on_the_registered_matrix(self):
        lib = default_library()
        for name in lib.names():
            gap = lib.unitarity_gap(name)
            assert gap == unitarity_gap(lib.matrix(name)) and gap <= 1e-9, name
            for tol in (0.0, 1e-30, 1e-16, 1e-9, 1.0, -1.0, float("nan")):
                assert (gap <= tol) == is_unitary(lib.matrix(name), tol=tol), (name, tol)

    def test_registration_rejects_non_unitary(self):
        squash = lift({"0": "0", "1": "0"}, BIT)
        with pytest.raises(ValueError):
            GateLibrary({"squash": squash})

    def test_default_library_is_built_once(self):
        assert default_library() is default_library()

    def test_unknown_gate(self):
        with pytest.raises(KeyError):
            default_library().op("nope")

    @pytest.mark.parametrize("method", ["op", "matrix", "unitarity_gap", "step"])
    def test_unknown_gate_lists_the_library_names(self, method):
        lib = GateLibrary({"x": lift(NOT_TABLE, BIT), "cnot": lift(cnot_table(), BB)})
        with pytest.raises(KeyError) as info:
            getattr(lib, method)("nope")
        assert info.value.args == ("unknown gate 'nope' (have: x, cnot)",)

    def test_ccnot_pointwise_listing(self):
        lib = default_library()
        table = ccnot_table()
        for label, out in table.items():
            ab, c = relalg.split_pair(label)
            if ab == "(1,1)":
                assert out == relalg.pair_label(ab, NOT_TABLE[c])
            else:
                assert out == label
        assert lib.matrix("ccnot") == cm(rt.CCNOT_8, product_basis(BB, BIT))

    def test_cross_module_cnot_consistency(self):
        lib = default_library()
        fst = relalg.from_function(lambda l: relalg.split_pair(l)[0], BB, BIT)
        xor = relalg.from_function(xor_table(), BB, BIT)
        via_rel = relalg.pair(fst, xor)
        assert np.array_equal(
            via_rel.entries.astype(float), lib.matrix("cnot").entries.real
        )
