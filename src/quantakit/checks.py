"""Runnable invariant suites behind the ``check`` command.

Each suite exercises one module's algebraic contracts with seeded
randomness, so repeated runs are byte-identical.  The suites return
plain (name, ok, detail) records; the CLI renders counts and failures.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import circuitgen, gates, quanta, relalg, vecmonad
from .relalg import BIT, FinBasis, Rel, pair_label, product_basis
from .vecmonad import AmpVec, KleisliOp

__all__ = ["CheckResult", "SUITES", "run_suites"]


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str = ""


def _result(suite: str, name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(suite, name, bool(ok), "" if ok else detail)


def _random_rel(rng: np.random.Generator, src: FinBasis, tgt: FinBasis) -> Rel:
    return Rel(src, tgt, rng.random((len(tgt), len(src))) < 0.5)


def _random_function(rng: np.random.Generator, src: FinBasis, tgt: FinBasis) -> Rel:
    table = {x: tgt.labels[int(rng.integers(len(tgt)))] for x in src}
    return relalg.from_function(table, src, tgt)


def _random_vec(rng: np.random.Generator, basis: FinBasis) -> AmpVec:
    re = rng.normal(size=len(basis))
    im = rng.normal(size=len(basis))
    return AmpVec({x: complex(re[i], im[i]) for i, x in enumerate(basis)})


def _random_kleisli(rng: np.random.Generator, src: FinBasis, tgt: FinBasis) -> KleisliOp:
    m = rng.normal(size=(len(tgt), len(src))) + 1j * rng.normal(size=(len(tgt), len(src)))
    return vecmonad.from_matrix(vecmonad.CMatrix(src, tgt, m))


def _random_unitary_op(rng: np.random.Generator, basis: FinBasis) -> KleisliOp:
    n = len(basis)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return vecmonad.from_matrix(vecmonad.CMatrix(basis, basis, q))


# ---------------------------------------------------------------------------
# relalg

def relalg_suite() -> list[CheckResult]:
    rng = np.random.default_rng(20260810)
    out: list[CheckResult] = []
    b3 = FinBasis(("a", "b", "c"))
    b2 = FinBasis(("p", "q"))

    ok = all(
        relalg.is_equivalence(relalg.kernel(_random_function(rng, b3, b2)))
        for _ in range(50)
    )
    out.append(_result("relalg", "kernel of a function is an equivalence", ok))

    ok = True
    for _ in range(50):
        f = _random_function(rng, b3, b3)
        bij = relalg.is_bijection(f)
        chr_ = relalg.kernel(f) == relalg.identity(b3) and relalg.image(f) == relalg.identity(b3)
        ok &= bij == chr_
    out.append(_result("relalg", "bijection iff kernel and image are identities", ok))

    rels2 = [Rel(b2, b2, np.array(bits, dtype=bool).reshape(2, 2))
             for bits in itertools.product([0, 1], repeat=4)]
    ok = True
    for r, s, x in itertools.product(rels2, rels2, rels2):
        lhs = relalg.leq_injectivity(relalg.pair(r, s), x)
        rhs = relalg.leq_injectivity(r, x) and relalg.leq_injectivity(s, x)
        if lhs != rhs:
            ok = False
            break
    out.append(_result("relalg", "pairing is the least upper bound (2-element bases)", ok))

    rels23 = [Rel(b3, b2, np.array(bits, dtype=bool).reshape(2, 3))
              for bits in itertools.product([0, 1], repeat=6)]
    kers = [relalg.kernel(r).entries for r in rels23]
    ok = True
    for kr, ks in itertools.product(kers, kers):
        cap = kr & ks
        for kx in kers:
            lhs = bool(np.all(~kx | cap))
            rhs = bool(np.all(~kx | kr)) and bool(np.all(~kx | ks))
            if lhs != rhs:
                ok = False
    out.append(_result("relalg", "pairing is the least upper bound (3-element source)", ok))

    ok = True
    for _ in range(200):
        g = _random_function(rng, b2, b3)
        r = _random_rel(rng, b3, b2)
        s = _random_rel(rng, b2, b2)
        lhs = relalg.leq_injectivity(relalg.compose(r, g), s)
        rhs = relalg.leq_injectivity(r, relalg.compose(s, relalg.converse(g)))
        ok &= lhs == rhs
    out.append(_result("relalg", "injectivity shunting law", ok))

    ok = True
    for r, s in itertools.product(rels2, rels2):
        for t, v in itertools.product(rels2[:8], rels2[8:]):
            lhs = relalg.either(relalg.pair(r, s), relalg.pair(t, v))
            rhs = relalg.pair(relalg.either(r, t), relalg.either(s, v))
            if lhs != rhs:
                ok = False
    out.append(_result("relalg", "exchange law (exhaustive 2-element bases)", ok))

    ok = True
    for _ in range(100):
        r = _random_rel(rng, b3, b2)
        s = _random_rel(rng, b3, b2)
        ok &= relalg.kernel(relalg.pair(r, s)) == relalg.meet(relalg.kernel(r), relalg.kernel(s))
        ok &= relalg.leq_injectivity(r, relalg.pair(r, s))
    out.append(_result("relalg", "kernel of a split meets the kernels", ok))

    ok = True
    for _ in range(100):
        r = _random_rel(rng, b3, b3)
        cols = [r.entries[:, j] for j in range(3)]
        by_columns = all(
            not (c1 & c2).any() or (c1 == c2).all()
            for c1, c2 in itertools.combinations(cols, 2)
        )
        ok &= relalg.is_difunctional(r) == by_columns
    out.append(_result("relalg", "difunctionality equals the column criterion", ok))

    bb = product_basis(BIT, BIT)
    mono = relalg.xor_monoid()
    ok = True
    for table_bits in itertools.product("01", repeat=4):
        table = {x: table_bits[j] for j, x in enumerate(bb)}
        f = relalg.from_function(table, bb, BIT)
        u = relalg.u_construct(f, mono)
        ok &= relalg.is_bijection(u)
        ok &= relalg.compose(u, u) == relalg.identity(u.src)
        for x in bb:
            _, out_b = relalg.split_pair(
                next(o for o, i in u.pairs() if i == pair_label(x, "0"))
            )
            ok &= out_b == table[x]
    out.append(_result("relalg", "envelope is a self-inverse bijection refining f", ok))

    xor = relalg.from_function(gates.xor_table(), bb, BIT)
    comps = relalg.minimal_complements(xor)
    ok = len(comps) == 2
    for q in comps:
        ok &= relalg.is_injective(relalg.pair(xor, q))
    out.append(_result("relalg", "xor has exactly the two projection complements", ok))

    return out


# ---------------------------------------------------------------------------
# vecmonad

def vecmonad_suite() -> list[CheckResult]:
    rng = np.random.default_rng(20260811)
    out: list[CheckResult] = []
    b4 = product_basis(BIT, BIT)

    ok = True
    for _ in range(1000):
        f = _random_kleisli(rng, b4, b4)
        g = _random_kleisli(rng, b4, b4)
        a = b4.labels[int(rng.integers(4))]
        v = _random_vec(rng, b4)
        ok &= vecmonad.vec_equal(vecmonad.bind(vecmonad.ret(a), f), f.apply(a), tol=1e-12)
        ok &= vecmonad.vec_equal(vecmonad.bind(v, vecmonad.ret_op(b4)), v, tol=1e-12)
        lhs = vecmonad.bind(vecmonad.bind(v, f), g)
        rhs = vecmonad.bind(v, KleisliOp(b4, lambda x: vecmonad.bind(f.apply(x), g)))
        ok &= vecmonad.vec_equal(lhs, rhs, tol=1e-12)
    out.append(_result("vecmonad", "monad laws (1000 randomized cases)", ok))

    ok = True
    for _ in range(50):
        f = _random_kleisli(rng, b4, b4)
        g = _random_kleisli(rng, b4, b4)
        lhs = vecmonad.materialize(vecmonad.kleisli(g, f), b4)
        rhs = vecmonad.matmul(vecmonad.materialize(g, b4), vecmonad.materialize(f, b4))
        ok &= lhs.close_to(rhs, tol=1e-9)
    ok &= vecmonad.materialize(vecmonad.ret_op(b4), b4) == vecmonad.identity_matrix(b4)
    out.append(_result("vecmonad", "materialize is functorial", ok))

    ok = True
    for _ in range(50):
        f = _random_kleisli(rng, BIT, BIT)
        g = _random_kleisli(rng, b4, b4)
        lhs = vecmonad.materialize(vecmonad.tensor(f, g), product_basis(BIT, b4))
        rhs = vecmonad.kron(vecmonad.materialize(f, BIT), vecmonad.materialize(g, b4))
        ok &= lhs.close_to(rhs, tol=1e-9)
    out.append(_result("vecmonad", "tensor materializes to the Kronecker product", ok))

    ok = True
    for _ in range(20):
        u1 = _random_unitary_op(rng, b4)
        u2 = _random_unitary_op(rng, b4)
        ok &= vecmonad.is_unitary(vecmonad.materialize(vecmonad.kleisli(u1, u2), b4), tol=1e-9)
        ok &= vecmonad.is_unitary(
            vecmonad.materialize(vecmonad.tensor(u1, u2), product_basis(b4, b4)), tol=1e-9
        )
    out.append(_result("vecmonad", "unitary ops close under composition and tensor", ok))

    ok = True
    for _ in range(100):
        v = _random_vec(rng, b4)
        noisy = vecmonad.add(v, AmpVec({b4.labels[0]: vecmonad.PRUNE_EPS / 10}))
        ok &= vecmonad.vec_equal(v, noisy, tol=10 * vecmonad.PRUNE_EPS)
    out.append(_result("vecmonad", "pruning is invisible above 10x the prune epsilon", ok))

    return out


# ---------------------------------------------------------------------------
# gates

def gates_suite() -> list[CheckResult]:
    out: list[CheckResult] = []
    lib = gates.default_library()

    ok = all(vecmonad.is_unitary(lib.matrix(n), tol=1e-9) for n in lib.names())
    out.append(_result("gates", "every library gate is unitary", ok))

    bb = product_basis(BIT, BIT)
    ok = True
    for f_tab, g_tab in itertools.product(
        [{"0": "0", "1": "1"}, {"0": "1", "1": "0"}], repeat=2
    ):
        m = vecmonad.materialize(
            gates.choice(gates.lift(f_tab, BIT), gates.lift(g_tab, BIT)), bb
        )
        col_ones = np.abs(m.entries - 1.0) < 1e-12
        ok &= bool((col_ones.sum(axis=0) == 1).all() and (col_ones.sum(axis=1) == 1).all())
        ok &= bool((np.abs(m.entries) > 1e-12).sum() == 4)
    out.append(_result("gates", "choice of classical bijections is a permutation", ok))

    via_pair = relalg.pair(
        relalg.from_function(lambda l: relalg.split_pair(l)[0], bb, BIT),
        relalg.from_function(gates.xor_table(), bb, BIT),
    )
    via_choice = vecmonad.materialize(
        gates.choice(gates.lift({"0": "0", "1": "1"}, BIT), gates.lift(gates.NOT_TABLE, BIT)),
        bb,
    )
    ok = np.array_equal(via_pair.entries.astype(float), via_choice.entries.real) and not np.any(
        via_choice.entries.imag
    )
    ok = ok and via_choice == lib.matrix("cnot")
    out.append(_result("gates", "cnot: split route and choice route coincide", ok))

    ccnot_env = relalg.u_construct(
        relalg.from_function(
            {l: "1" if l == pair_label("1", "1") else "0" for l in bb}, bb, BIT
        ),
        relalg.xor_monoid(),
    )
    ok = np.array_equal(
        ccnot_env.entries.astype(float), lib.matrix("ccnot").entries.real
    )
    out.append(_result("gates", "ccnot: envelope route equals the lifted table", ok))

    h2 = vecmonad.matmul(lib.matrix("h"), lib.matrix("h"))
    ok = h2.close_to(vecmonad.identity_matrix(BIT), tol=1e-12)
    t8 = vecmonad.identity_matrix(BIT)
    for _ in range(8):
        t8 = vecmonad.matmul(lib.matrix("t"), t8)
    ok &= t8.close_to(vecmonad.identity_matrix(BIT), tol=1e-9)
    out.append(_result("gates", "h squares and t eighth-powers to the identity", ok))

    b_mat = vecmonad.materialize(gates.bell(), bb)
    hid = vecmonad.kron(lib.matrix("h"), vecmonad.identity_matrix(BIT))
    ok = b_mat.close_to(vecmonad.matmul(lib.matrix("cnot"), hid), tol=1e-12)
    ok &= vecmonad.materialize(gates.unbell(), bb).close_to(vecmonad.dagger(b_mat), tol=1e-12)
    out.append(_result("gates", "bell and unbell are adjoint blocks of the cnot/hadamard pair", ok))

    rng = np.random.default_rng(20260812)
    ok = True
    for _ in range(20):
        p = _random_unitary_op(rng, BIT)
        f = _random_unitary_op(rng, BIT)
        g = _random_unitary_op(rng, BIT)
        ok &= vecmonad.is_unitary(
            vecmonad.materialize(gates.mccarthy(p, f, g), bb), tol=1e-9
        )
    out.append(_result("gates", "guarded choice of unitaries is unitary", ok))

    return out


# ---------------------------------------------------------------------------
# quanta

def quanta_suite() -> list[CheckResult]:
    rng = np.random.default_rng(20260813)
    out: list[CheckResult] = []
    lib = gates.default_library()
    bb = product_basis(BIT, BIT)
    lb2 = quanta.ListBasis(2)

    ok = True
    for _ in range(20):
        step = _random_unitary_op(rng, bb)
        m = vecmonad.materialize(quanta.quantamorphism(step, 2), lb2.basis)
        ok &= vecmonad.is_unitary(m, tol=1e-9)
    out.append(_result("quanta", "fold of a unitary step is unitary (20 random steps)", ok))

    ok = True
    for _ in range(5):
        step = _random_unitary_op(rng, bb)
        op = quanta.quantamorphism(step, 2)
        for label in lb2.basis:
            in_len = len(relalg.split_list(relalg.split_pair(label)[0]))
            for out_label in op.apply(label).support:
                out_len = len(relalg.split_list(relalg.split_pair(out_label)[0]))
                ok &= out_len == in_len
    out.append(_result("quanta", "outputs keep the input list length", ok))

    m = vecmonad.materialize(quanta.quantamorphism(lib.op("id"), 2), lb2.basis)
    ok = m.close_to(vecmonad.identity_matrix(lb2.basis), tol=1e-12)
    out.append(_result("quanta", "fold of the identity step is the identity", ok))

    ok = True
    step = gates.bell()
    for k_tab in [{"0": "0", "1": "1"}, {"0": "1", "1": "0"},
                  {"0": "0", "1": "0"}, {"0": "1", "1": "1"}]:
        mapk = {
            lbl: pair_label(
                relalg.list_label(tuple(k_tab[i] for i in relalg.split_list(relalg.split_pair(lbl)[0]))),
                relalg.split_pair(lbl)[1],
            )
            for lbl in lb2.basis
        }
        k_pre = {
            lbl: pair_label(k_tab[relalg.split_pair(lbl)[0]], relalg.split_pair(lbl)[1])
            for lbl in bb
        }
        lhs = vecmonad.materialize(
            vecmonad.kleisli(quanta.quantamorphism(step, 2), gates.lift(mapk, lb2.basis)),
            lb2.basis,
        )
        rhs = vecmonad.materialize(
            quanta.quantamorphism(
                vecmonad.kleisli(step, gates.lift(k_pre, bb)), 2, validate=False
            ),
            lb2.basis,
        )
        ok &= lhs.close_to(rhs, tol=1e-9)

        lhs2 = vecmonad.materialize(
            vecmonad.kleisli(gates.lift(mapk, lb2.basis), quanta.quantamorphism(step, 2)),
            lb2.basis,
        )
        rhs2 = vecmonad.materialize(
            quanta.quantamorphism(
                vecmonad.kleisli(gates.lift(k_pre, bb), step), 2, validate=False
            ),
            lb2.basis,
        )
        ok &= lhs2.close_to(rhs2, tol=1e-9)
    out.append(_result("quanta", "free theorems for item relabelings (maxlen 2)", ok))

    ok = _banana_split_ok(rng)
    out.append(_result("quanta", "paired folds fuse into one fold (maxlen 2)", ok))

    lb2b = quanta.ListBasis(2)
    fst_fn = relalg.from_function(
        lambda l: relalg.split_pair(l)[0], lb2b.basis, lb2b.list_basis
    )
    by_cata = quanta.cata(
        lambda side, body: relalg.list_label(()) if side == 0 else relalg.list_label(
            (relalg.split_pair(body)[0],) + relalg.split_list(relalg.split_pair(body)[1])
        ),
        2,
        lb2b.list_basis,
    )
    out.append(_result("quanta", "folding the constructors projects the list", by_cata == fst_fn))

    alpha_m = vecmonad.materialize(quanta.alpha(2), lb2.basis)
    psi_id = vecmonad.materialize(quanta.psi(lib.op("id"), 2), lb2.basis)
    ok = psi_id.close_to(alpha_m, tol=1e-12)
    out.append(_result("quanta", "one-layer unfolding of the identity is alpha", ok))

    ok = True
    complemented = 0
    for bits in itertools.product("01", repeat=4):
        table = {x: bits[j] for j, x in enumerate(bb)}
        try:
            rel = quanta.rfold_rel(table, 2)
        except relalg.ComplementError:
            continue
        complemented += 1
        ok &= relalg.is_bijection(rel)
    ok &= complemented == 4
    out.append(_result("quanta", "projection-complemented steps promote to bijective folds", ok))

    ok = True
    for perm in itertools.permutations(range(4)):
        table = {bb.labels[i]: bb.labels[perm[i]] for i in range(4)}
        x = gates.lift(table, bb)
        m_psi = vecmonad.materialize(quanta.psi(x, 2), lb2.basis)
        rel = Rel(m_psi.src, m_psi.tgt, np.abs(m_psi.entries) > 0.5)
        ok &= relalg.is_injective(rel)
    out.append(_result("quanta", "one-layer unfolding preserves injectivity", ok))

    ok = True
    for step in [lib.op("cnot"), gates.bell(), _random_unitary_op(rng, bb)]:
        direct = vecmonad.materialize(quanta.quantamorphism(step, 2, validate=False), lb2.basis)
        fused = vecmonad.materialize(quanta.quantamorphism_via_psi(step, 2), lb2.basis)
        ok &= direct.close_to(fused, tol=1e-9)
    out.append(_result("quanta", "fused unfolding route equals the direct recursion", ok))

    return out


def _banana_split_ok(rng: np.random.Generator) -> bool:
    bb = product_basis(BIT, BIT)
    cop = relalg.coproduct_basis(BIT, bb)
    ok = True
    algebras = [
        lambda side, body: body if side == 0 else gates.xor_table()[body],
        lambda side, body: body if side == 0 else relalg.split_pair(body)[1],
    ]
    for _ in range(3):
        table = {x: BIT.labels[int(rng.integers(2))] for x in cop}
        algebras.append(
            lambda side, body, t=table: t[
                relalg.tag_left(body) if side == 0 else relalg.tag_right(body)
            ]
        )
    for h1, h2 in itertools.product(algebras, repeat=2):
        f1 = quanta.cata(h1, 2, BIT)
        f2 = quanta.cata(h2, 2, BIT)
        lhs = relalg.pair(f1, f2)

        def fused(side: int, body: str, a=h1, b=h2) -> str:
            if side == 0:
                return pair_label(a(0, body), b(0, body))
            item, pairv = relalg.split_pair(body)
            c1, c2 = relalg.split_pair(pairv)
            return pair_label(a(1, pair_label(item, c1)), b(1, pair_label(item, c2)))

        rhs = quanta.cata(fused, 2, product_basis(BIT, BIT))
        ok &= lhs == rhs
    return ok


# ---------------------------------------------------------------------------
# circuitgen

def circuitgen_suite() -> list[CheckResult]:
    rng = np.random.default_rng(20260814)
    out: list[CheckResult] = []
    lib = gates.default_library()

    cnot4 = lib.matrix("cnot")
    enc4 = circuitgen.Encoding(cnot4.src)
    circ4 = circuitgen.synth_permutation(cnot4, enc4)
    ok = circ4.gates == (circuitgen.Gate("cx", (0, 1)),)
    out.append(_result("circuitgen", "the 2-bit controlled-not compiles to one cx", ok))

    ok = True
    cases = [cnot4]
    for _ in range(3):
        perm = rng.permutation(8)
        m = np.zeros((8, 8))
        for j, i in enumerate(perm):
            m[i, j] = 1.0
        basis = FinBasis(tuple(format(i, "03b") for i in range(8)))
        cases.append(vecmonad.CMatrix(basis, basis, m))
    for m in cases:
        enc = circuitgen.Encoding(m.src)
        circ = circuitgen.synth_permutation(m, enc)
        for j, label in enumerate(m.src):
            got = circuitgen.simulate(circ, enc.bits_of(label))
            expect = enc.bits_of(m.tgt.labels[int(np.argmax(np.abs(m.entries[:, j])))])
            ok &= got == expect
    out.append(_result("circuitgen", "synthesized circuits act as their matrices", ok))

    ok = True
    for n_controls in range(1, 7):
        anc = tuple(range(n_controls + 1, n_controls + 1 + max(0, n_controls - 2)))
        for pols in ([1] * n_controls, [0] + [1] * (n_controls - 1)):
            controls = tuple((q, pols[q]) for q in range(n_controls))
            gs = circuitgen.decompose_mcx(controls, n_controls, anc)
            ok &= all(g.name in ("x", "cx", "ccx") for g in gs)
            width = n_controls + 1 + len(anc)
            circ = circuitgen.Circuit(width, 0, gs)
            for bits in itertools.product("01", repeat=n_controls + 1):
                inp = "".join(bits) + "0" * len(anc)
                got = circuitgen.simulate(circ, inp)
                fire = all(int(bits[q]) == p for q, p in controls)
                want = list(bits) + ["0"] * len(anc)
                if fire:
                    want[n_controls] = "1" if bits[n_controls] == "0" else "0"
                ok &= got == "".join(want)
    out.append(_result("circuitgen", "mcx lowering has the mcx truth table (up to 6 controls)", ok))

    ok = True
    for _ in range(10):
        n = 3
        gs = []
        for _ in range(12):
            kind = ["x", "cx", "ccx", "h"][int(rng.integers(4))]
            qubits = tuple(int(q) for q in rng.choice(n, size={"x": 1, "h": 1, "cx": 2, "ccx": 3}[kind], replace=False))
            gs.append(circuitgen.Gate(kind, qubits))
        gs = gs + gs[::-1]
        circ = circuitgen.Circuit(n, 0, tuple(gs))
        slim = circuitgen.peephole(circ)
        for i in range(2 ** n):
            bits = format(i, f"0{n}b")
            a = circuitgen.simulate_state(circ, AmpVec({bits: 1.0}))
            b = circuitgen.simulate_state(slim, AmpVec({bits: 1.0}))
            ok &= vecmonad.vec_equal(a, b, tol=1e-9)
    out.append(_result("circuitgen", "peephole cancellation preserves semantics", ok))

    circ = circuitgen.synth_permutation(cnot4, enc4)
    text = circuitgen.export_qasm(circ)
    ok = circuitgen.parse_qasm(text).gates == circ.gates
    out.append(_result("circuitgen", "exported QASM parses back to the same gates", ok))

    ok = True
    basis = FinBasis(("00", "01", "10", "11"))
    for _ in range(10):
        gs = []
        for _ in range(6):
            kind = ["x", "cx", "h", "t"][int(rng.integers(4))]
            qubits = tuple(int(q) for q in rng.choice(2, size={"x": 1, "h": 1, "t": 1, "cx": 2}[kind], replace=False))
            gs.append(circuitgen.Gate(kind, qubits))
        circ = circuitgen.Circuit(2, 0, tuple(gs))
        v = _random_vec(rng, basis)
        got = circuitgen.simulate_state(circ, v)
        m = _dense_circuit_matrix(circ)
        arr = np.array([v[b] for b in basis.labels])
        want = m @ arr
        ok &= all(abs(got[b] - want[i]) <= 1e-9 for i, b in enumerate(basis.labels))
    out.append(_result("circuitgen", "statevector path matches dense matrix action", ok))

    return out


_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
_T = np.diag([1.0, np.exp(1j * np.pi / 4)])


def _dense_circuit_matrix(c: "circuitgen.Circuit") -> np.ndarray:
    """Independent dense oracle: Kronecker products and index permutations,
    qubit 0 being the most significant bit of the state index."""
    n = c.total_qubits
    dim = 2 ** n
    total = np.eye(dim, dtype=np.complex128)
    for g in c.gates:
        if g.name in ("x", "h", "t", "tdg"):
            u = {"x": _X, "h": _H, "t": _T, "tdg": _T.conj()}[g.name]
            q = g.qubits[0]
            mat = np.kron(np.kron(np.eye(2 ** q), u), np.eye(2 ** (n - 1 - q)))
        else:
            mat = np.zeros((dim, dim), dtype=np.complex128)
            for i in range(dim):
                bits = [(i >> (n - 1 - q)) & 1 for q in range(n)]
                fire = all(bits[q] for q in g.qubits[:-1]) if g.name in ("cx", "ccx") else all(
                    bits[q] == p for q, p in zip(g.qubits[:-1], g.ctrl_state)
                )
                j = i ^ (1 << (n - 1 - g.qubits[-1])) if fire else i
                mat[j, i] = 1.0
            if g.name not in ("cx", "ccx", "mcx"):
                raise ValueError(g.name)
        total = mat @ total
    return total


SUITES = {
    "relalg": relalg_suite,
    "vecmonad": vecmonad_suite,
    "gates": gates_suite,
    "quanta": quanta_suite,
    "circuitgen": circuitgen_suite,
}


def run_suites(names: list[str]) -> list[CheckResult]:
    return [r for n in names for r in SUITES[n]()]
