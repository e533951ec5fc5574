"""Runnable invariant suites behind the ``check`` command.

Each suite exercises one module's algebraic contracts with seeded
randomness, so repeated runs are byte-identical.  A suite records its
checks in one ``_Suite``, which each check names once, at its start: a
loop fills the ``_Cases`` of ``_Suite.cases``, a single verdict goes
through ``_Suite.add`` and a law over all operand tuples through
``_Suite.law``.  The suites return plain (suite, name, ok, detail)
records, in check order; the CLI renders counts and failures.

The exhaustive relation-algebra laws call the library operators once on
every distinct operand (each split, junc and kernel they need), stack the
results, and compare both sides of the law over all operand tuples in one
array operation; a failure names its first counterexample tuple.  The
randomized loops run every case and name the first one that fails.
"""
from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from . import gates, quanta, relalg, vecmonad
from .relalg import BIT, FinBasis, Rel, pair_label
from .vecmonad import AmpVec, KleisliOp

__all__ = ["CheckResult", "SUITES"]


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str = ""


def _masks(rels: list[Rel]) -> np.ndarray:
    """Each relation's entries as one bit mask: r <= s is r & ~s == 0."""
    bits = np.array([r.entries.ravel() for r in rels], dtype=np.uint16)
    return (bits << np.arange(bits.shape[1], dtype=np.uint16)).sum(axis=1, dtype=np.uint16)


def _rows(r: Rel) -> str:
    """A relation's entries row by row, as in 01/10."""
    return "/".join("".join("1" if b else "0" for b in row) for row in r.entries)


class _Cases:
    """The verdict of a loop over cases, and a description of its first
    failing case; ``describe`` is called for that case only."""

    def __init__(self) -> None:
        self.ok, self.detail = True, ""

    def check(self, ok: object, describe: Callable[[], str]) -> None:
        if not ok and self.ok:
            self.ok, self.detail = False, "first counterexample " + describe()


class _Suite:
    """The one recorder of a suite's results, in check order: each check
    names itself once, at its start, through ``cases``, ``add`` or ``law``."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._checks: list[tuple[str, _Cases]] = []

    def cases(self, name: str) -> _Cases:
        """The cases of check ``name``, for its loop to fill."""
        cases = _Cases()
        self._checks.append((name, cases))
        return cases

    def add(self, name: str, ok: object, detail: str = "") -> None:
        """One verdict, with the detail it keeps if it fails."""
        cases = self.cases(name)
        cases.ok, cases.detail = bool(ok), "" if ok else detail

    def law(self, name: str, lhs: np.ndarray, rhs: np.ndarray, **operands: list[Rel]) -> None:
        """A law tested over all operand tuples at once: the leading axes of
        ``lhs`` and ``rhs`` index the operand lists, in order.  A failure
        names the first tuple where the two sides differ, each relation by
        its rows."""
        cases = self.cases(name)
        if not np.array_equal(lhs, rhs):
            first = np.argwhere(lhs != rhs)[0]
            named = [f"{n}={_rows(rels[i])}" for (n, rels), i in zip(operands.items(), first)]
            cases.check(False, lambda: ", ".join(named))

    def results(self) -> list[CheckResult]:
        return [CheckResult(self.name, name, cases.ok, cases.detail) for name, cases in self._checks]


def _gap(u: AmpVec | vecmonad.CMatrix, v: AmpVec | vecmonad.CMatrix) -> str:
    """How far apart two kets, or two typed matrices, are."""
    if isinstance(u, AmpVec):
        gap = max((abs(u[k] - v[k]) for k in u.support | v.support), default=0.0)
    elif u.src != v.src or u.tgt != v.tgt:
        return "bases differ"
    else:
        gap = np.max(np.abs(u.entries - v.entries), initial=0.0)
    return f"sup-norm gap {gap:.3g}"


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


def _monad_law_draws(rng: np.random.Generator, n: int) -> Iterator[tuple[np.ndarray, np.ndarray, int, np.ndarray]]:
    """The monad-law cases on 4 states, in three draws each: f's and g's
    matrices from one (4, 4, 4) normal draw, the unit's index, then v's
    real and imaginary parts from one (2, 4) draw.  The generator hands out
    normals in order, so these are the numbers that two ``_random_kleisli``
    calls, then ``integers(4)`` and ``_random_vec``, would draw, and they
    leave the generator in the same state."""
    for _ in range(n):
        fg = rng.normal(size=(4, 4, 4))
        k = int(rng.integers(4))
        yield fg[0] + 1j * fg[1], fg[2] + 1j * fg[3], k, rng.normal(size=(2, 4))


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
    rec = _Suite("relalg")
    b3 = FinBasis(("a", "b", "c"))
    b2 = FinBasis(("p", "q"))

    cases = rec.cases("kernel of a function is an equivalence")
    for _ in range(50):
        f = _random_function(rng, b3, b2)
        cases.check(relalg.is_equivalence(relalg.kernel(f)), lambda: f"f={_rows(f)}")

    cases = rec.cases("bijection iff kernel and image are identities")
    for _ in range(50):
        f = _random_function(rng, b3, b3)
        bij = relalg.is_bijection(f)
        chr_ = relalg.kernel(f) == relalg.identity(b3) and relalg.image(f) == relalg.identity(b3)
        cases.check(bij == chr_, lambda: f"f={_rows(f)}: bijection {bij}, identity kernel and image {chr_}")

    rels2 = [Rel(b2, b2, np.array(bits, dtype=bool).reshape(2, 2))
             for bits in itertools.product([0, 1], repeat=4)]
    rels23 = [Rel(b3, b2, np.array(bits, dtype=bool).reshape(2, 3))
              for bits in itertools.product([0, 1], repeat=6)]
    # <r,s> <= x (ker x inside ker <r,s>) against r <= x and s <= x, for
    # every (r, s, x) at once, on library kernels as bit masks: on 2-element
    # bases, then on a 3-element source over its 4,096 splits.
    for rels, where in ((rels2, "2-element bases"), (rels23, "3-element source")):
        ker = _masks([relalg.kernel(r) for r in rels])
        ker_pair = _masks([relalg.kernel(relalg.pair(r, s)) for r in rels for s in rels]).reshape(len(rels), -1)
        r, s, x = ker[:, None, None], ker[None, :, None], ker[None, None, :]
        lhs = (x & ~ker_pair[:, :, None]) == 0
        rhs = ((x & ~r) == 0) & ((x & ~s) == 0)
        rec.law(f"pairing is the least upper bound ({where})", lhs, rhs, r=rels, s=rels, x=rels)

    cases = rec.cases("injectivity shunting law")
    for _ in range(200):
        g = _random_function(rng, b2, b3)
        r = _random_rel(rng, b3, b2)
        s = _random_rel(rng, b2, b2)
        lhs = relalg.leq_injectivity(relalg.compose(r, g), s)
        rhs = relalg.leq_injectivity(r, relalg.compose(s, relalg.converse(g)))
        cases.check(lhs == rhs, lambda: f"g={_rows(g)}, r={_rows(r)}, s={_rows(s)}")

    # Library splits and juncs on every distinct operand; the outer junc
    # (columns side by side) and split (rowwise meet) for every (r, s, t, v).
    ts, vs = rels2[:8], rels2[8:]
    p = np.array([relalg.pair(r, s).entries for r in rels2 for s in rels2]).reshape(16, 16, 4, 2)
    rt = np.array([relalg.either(r, t).entries for r in rels2 for t in ts]).reshape(16, 1, 8, 1, 2, 4)
    sv = np.array([relalg.either(s, v).entries for s in rels2 for v in vs]).reshape(1, 16, 1, 8, 2, 4)
    lhs = np.concatenate(np.broadcast_arrays(p[:, :, None, None], p[None, None, :8, 8:]), axis=-1)
    rhs = (rt[..., :, None, :] & sv[..., None, :, :]).reshape(lhs.shape)
    rec.law("exchange law (exhaustive 2-element bases)", lhs, rhs, r=rels2, s=rels2, t=ts, v=vs)

    cases = rec.cases("kernel of a split meets the kernels")
    for _ in range(100):
        r = _random_rel(rng, b3, b2)
        s = _random_rel(rng, b3, b2)
        cases.check(relalg.kernel(relalg.pair(r, s)) == relalg.meet(relalg.kernel(r), relalg.kernel(s)),
                    lambda: f"r={_rows(r)}, s={_rows(s)}: the kernel of <r,s> is not the meet of theirs")
        cases.check(relalg.leq_injectivity(r, relalg.pair(r, s)),
                    lambda: f"r={_rows(r)}, s={_rows(s)}: r is more injective than <r,s>")

    cases = rec.cases("difunctionality equals the column criterion")
    for _ in range(100):
        r = _random_rel(rng, b3, b3)
        cols = [r.entries[:, j] for j in range(3)]
        by_columns = all(
            not (c1 & c2).any() or (c1 == c2).all()
            for c1, c2 in itertools.combinations(cols, 2)
        )
        cases.check(relalg.is_difunctional(r) == by_columns,
                    lambda: f"r={_rows(r)}: column criterion {by_columns}")

    cases = rec.cases("envelope is a self-inverse bijection refining f")
    bb = relalg.product_basis(BIT, BIT)
    mono = relalg.xor_monoid()
    for table_bits in itertools.product("01", repeat=4):
        table = {x: table_bits[j] for j, x in enumerate(bb)}
        f = relalg.from_function(table, bb, BIT)
        u = relalg.u_construct(f, mono)
        cases.check(relalg.is_bijection(u), lambda: f"f={_rows(f)}: the envelope is no bijection")
        cases.check(relalg.compose(u, u) == relalg.identity(u.src),
                    lambda: f"f={_rows(f)}: the envelope is not self-inverse")
        for x in bb:
            _, out_b = relalg.split_pair(
                next(o for o, i in u.pairs() if i == pair_label(x, "0"))
            )
            cases.check(out_b == table[x], lambda: f"f={_rows(f)}: the envelope sends {pair_label(x, '0')}"
                                                   f" to payload {out_b}, f gives {table[x]}")

    cases = rec.cases("xor has exactly the two projection complements")
    xor = relalg.from_function(gates.xor_table(), bb, BIT)
    comps = relalg.minimal_complements(xor)
    cases.check(len(comps) == 2, lambda: f"{len(comps)} minimal complements")
    for p in comps:
        cases.check(relalg.is_injective(relalg.pair(xor, relalg.quotient(bb, p))),
                    lambda: f"blocks {p}: the split with xor is not injective")

    return rec.results()


# ---------------------------------------------------------------------------
# vecmonad

def vecmonad_suite() -> list[CheckResult]:
    rng = np.random.default_rng(20260811)
    rec = _Suite("vecmonad")
    b4 = relalg.product_basis(BIT, BIT)

    cases = rec.cases("monad laws (1000 randomized cases)")
    for i, (fm, gm, k, vp) in enumerate(_monad_law_draws(rng, 1000)):
        f = vecmonad.from_matrix(vecmonad.CMatrix(b4, b4, fm))
        g = vecmonad.from_matrix(vecmonad.CMatrix(b4, b4, gm))
        a = b4.labels[k]
        v = AmpVec({x: complex(vp[0, j], vp[1, j]) for j, x in enumerate(b4)})
        lhs, rhs = vecmonad.bind(vecmonad.ret(a), f), f.apply(a)
        cases.check(vecmonad.vec_equal(lhs, rhs, tol=1e-12),
                    lambda: f"case {i}: left unit at a={a}, {_gap(lhs, rhs)}")
        lhs = vecmonad.bind(v, vecmonad.ret_op(b4))
        cases.check(vecmonad.vec_equal(lhs, v, tol=1e-12), lambda: f"case {i}: right unit, {_gap(lhs, v)}")
        lhs = vecmonad.bind(vecmonad.bind(v, f), g)
        rhs = vecmonad.bind(v, KleisliOp(b4, lambda x: vecmonad.bind(f.apply(x), g)))
        cases.check(vecmonad.vec_equal(lhs, rhs, tol=1e-12), lambda: f"case {i}: associativity, {_gap(lhs, rhs)}")

    cases = rec.cases("materialize is functorial")
    for i in range(50):
        f = _random_kleisli(rng, b4, b4)
        g = _random_kleisli(rng, b4, b4)
        lhs = vecmonad.materialize(vecmonad.kleisli(g, f), b4)
        rhs = vecmonad.matmul(vecmonad.materialize(g, b4), vecmonad.materialize(f, b4))
        cases.check(lhs.close_to(rhs, tol=1e-9), lambda: f"case {i}: Kleisli composite, {_gap(lhs, rhs)}")
    lhs, rhs = vecmonad.materialize(vecmonad.ret_op(b4), b4), vecmonad.identity_matrix(b4)
    cases.check(lhs == rhs, lambda: f"the unit is not the identity matrix, {_gap(lhs, rhs)}")

    cases = rec.cases("tensor materializes to the Kronecker product")
    for i in range(50):
        f = _random_kleisli(rng, BIT, BIT)
        g = _random_kleisli(rng, b4, b4)
        lhs = vecmonad.materialize(vecmonad.tensor(f, g), relalg.product_basis(BIT, b4))
        rhs = vecmonad.kron(vecmonad.materialize(f, BIT), vecmonad.materialize(g, b4))
        cases.check(lhs.close_to(rhs, tol=1e-9), lambda: f"case {i}: {_gap(lhs, rhs)}")

    cases = rec.cases("unitary ops close under composition and tensor")
    for i in range(20):
        u1 = _random_unitary_op(rng, b4)
        u2 = _random_unitary_op(rng, b4)
        cases.check(vecmonad.is_unitary(vecmonad.materialize(vecmonad.kleisli(u1, u2), b4), tol=1e-9),
                    lambda: f"case {i}: the composite is not unitary")
        cases.check(vecmonad.is_unitary(
            vecmonad.materialize(vecmonad.tensor(u1, u2), relalg.product_basis(b4, b4)), tol=1e-9
        ), lambda: f"case {i}: the tensor is not unitary")

    cases = rec.cases("pruning is invisible above 10x the prune epsilon")
    for i in range(100):
        v = _random_vec(rng, b4)
        noisy = vecmonad.add(v, AmpVec({b4.labels[0]: vecmonad.PRUNE_EPS / 10}))
        cases.check(vecmonad.vec_equal(v, noisy, tol=10 * vecmonad.PRUNE_EPS),
                    lambda: f"case {i}: {_gap(v, noisy)}")

    return rec.results()


# ---------------------------------------------------------------------------
# gates

def gates_suite() -> list[CheckResult]:
    rec = _Suite("gates")
    lib = gates.default_library()

    cases = rec.cases("every library gate is unitary")
    for n in lib.names():
        gap = vecmonad.unitarity_gap(lib.matrix(n))
        cases.check(gap <= 1e-9, lambda: f"gate {n}: unitarity gap {gap:.3g}")

    cases = rec.cases("choice of classical bijections is a permutation")
    bb = relalg.product_basis(BIT, BIT)
    for f_tab, g_tab in itertools.product(
        [{"0": "0", "1": "1"}, {"0": "1", "1": "0"}], repeat=2
    ):
        m = vecmonad.materialize(
            gates.choice(gates.lift(f_tab, BIT), gates.lift(g_tab, BIT)), bb
        )
        col_ones = np.abs(m.entries - 1.0) < 1e-12
        ok = (col_ones.sum(axis=0) == 1).all() and (col_ones.sum(axis=1) == 1).all()
        ok = ok and (np.abs(m.entries) > 1e-12).sum() == 4
        cases.check(ok, lambda: f"f={f_tab['0']}{f_tab['1']}, g={g_tab['0']}{g_tab['1']}: no permutation matrix")

    cases = rec.cases("cnot: split route and choice route coincide")
    via_pair = relalg.pair(
        relalg.from_function(lambda l: relalg.split_pair(l)[0], bb, BIT),
        relalg.from_function(gates.xor_table(), bb, BIT),
    )
    via_choice = vecmonad.materialize(
        gates.choice(gates.lift({"0": "0", "1": "1"}, BIT), gates.lift(gates.NOT_TABLE, BIT)),
        bb,
    )
    cnot = lib.matrix("cnot")
    cases.check(np.array_equal(via_pair.entries, via_choice.entries),
                lambda: f"input {_first_input(via_pair, via_choice)}: the split and choice routes differ")
    cases.check(via_choice == cnot,
                lambda: f"input {_first_input(via_choice, cnot)}: the choice route is not the library cnot")

    cases = rec.cases("ccnot: envelope route equals the lifted table")
    ccnot_env = relalg.u_construct(
        relalg.from_function(
            {l: "1" if l == pair_label("1", "1") else "0" for l in bb}, bb, BIT
        ),
        relalg.xor_monoid(),
    )
    lifted = lib.matrix("ccnot")
    cases.check(np.array_equal(ccnot_env.entries, lifted.entries),
                lambda: f"input {_first_input(ccnot_env, lifted)}: the envelope and the lifted table differ")

    cases = rec.cases("h squares and t eighth-powers to the identity")
    h2 = vecmonad.matmul(lib.matrix("h"), lib.matrix("h"))
    cases.check(h2.close_to(vecmonad.identity_matrix(BIT), tol=1e-12),
                lambda: f"h squared against the identity, {_gap(h2, vecmonad.identity_matrix(BIT))}")
    t8 = vecmonad.identity_matrix(BIT)
    for _ in range(8):
        t8 = vecmonad.matmul(lib.matrix("t"), t8)
    cases.check(t8.close_to(vecmonad.identity_matrix(BIT), tol=1e-9),
                lambda: f"t to the eighth against the identity, {_gap(t8, vecmonad.identity_matrix(BIT))}")

    cases = rec.cases("bell and unbell are adjoint blocks of the cnot/hadamard pair")
    b_mat = vecmonad.materialize(gates.bell(), bb)
    hid = vecmonad.kron(lib.matrix("h"), vecmonad.identity_matrix(BIT))
    want = vecmonad.matmul(lib.matrix("cnot"), hid)
    cases.check(b_mat.close_to(want, tol=1e-12),
                lambda: f"bell against cnot after h on the first bit, {_gap(b_mat, want)}")
    u_mat, b_dag = vecmonad.materialize(gates.unbell(), bb), vecmonad.dagger(b_mat)
    cases.check(u_mat.close_to(b_dag, tol=1e-12), lambda: f"unbell against the adjoint of bell, {_gap(u_mat, b_dag)}")

    cases = rec.cases("guarded choice of unitaries is unitary")
    rng = np.random.default_rng(20260812)
    for i in range(20):
        p = _random_unitary_op(rng, BIT)
        f = _random_unitary_op(rng, BIT)
        g = _random_unitary_op(rng, BIT)
        gap = vecmonad.unitarity_gap(vecmonad.materialize(gates.mccarthy(p, f, g), bb))
        cases.check(gap <= 1e-9, lambda: f"case {i}: unitarity gap {gap:.3g}")

    return rec.results()


def _first_input(a: Rel | vecmonad.CMatrix, b: Rel | vecmonad.CMatrix) -> str:
    """Where two typed matrices differ: the first input whose columns
    differ, or ``(bases differ)``."""
    if a.src != b.src or a.tgt != b.tgt:
        return "(bases differ)"
    return a.src.labels[np.flatnonzero((a.entries != b.entries).any(axis=0))[0]]


# ---------------------------------------------------------------------------
# quanta

def quanta_suite() -> list[CheckResult]:
    rng = np.random.default_rng(20260813)
    rec = _Suite("quanta")
    lib = gates.default_library()
    bb = relalg.product_basis(BIT, BIT)
    lb2 = quanta.ListBasis(2)

    cases = rec.cases("fold of a unitary step is unitary (20 random steps)")
    for i in range(20):
        gap = vecmonad.unitarity_gap(quanta.fold_matrix(_random_unitary_op(rng, bb), 2))
        cases.check(gap <= 1e-9, lambda: f"step {i}: unitarity gap {gap:.3g}")

    cases = rec.cases("outputs keep the input list length")
    lengths = np.array([len(relalg.split_list(relalg.split_pair(label)[0])) for label in lb2.basis])
    for i in range(5):
        rows, cols = np.nonzero(quanta.fold_matrix(_random_unitary_op(rng, bb), 2).entries)
        moved = np.flatnonzero(lengths[rows] != lengths[cols])
        cases.check(not len(moved),
                    lambda: f"step {i}: {lb2.labels[cols[moved[0]]]} reaches {lb2.labels[rows[moved[0]]]}")

    rec.add("fold of the identity step is the identity",
            quanta.fold_matrix(lib.step("id"), 2).close_to(vecmonad.identity_matrix(lb2.basis), tol=1e-12))

    cases = rec.cases("free theorems for item relabelings (maxlen 2)")
    step = lib.op("bell")
    fold = quanta.fold_matrix(lib.step("bell"), 2)
    for k_tab in [{"0": "0", "1": "1"}, {"0": "1", "1": "0"},
                  {"0": "0", "1": "0"}, {"0": "1", "1": "1"}]:
        mapk = {
            lbl: pair_label(
                relalg.list_label(tuple(k_tab[i] for i in relalg.split_list(relalg.split_pair(lbl)[0]))),
                relalg.split_pair(lbl)[1],
            )
            for lbl in lb2.basis
        }
        k_id = vecmonad.tensor(gates.lift(k_tab, BIT), vecmonad.ret_op(BIT))
        k = k_tab["0"] + k_tab["1"]
        relabel = vecmonad.materialize(gates.lift(mapk, lb2.basis), lb2.basis)
        lhs = vecmonad.matmul(fold, relabel)
        rhs = quanta.fold_matrix(vecmonad.kleisli(step, k_id), 2)
        cases.check(lhs.close_to(rhs, tol=1e-9), lambda: f"relabelling k={k}: fold after k, {_gap(lhs, rhs)}")

        lhs2 = vecmonad.matmul(relabel, fold)
        rhs2 = quanta.fold_matrix(vecmonad.kleisli(k_id, step), 2)
        cases.check(lhs2.close_to(rhs2, tol=1e-9), lambda: f"relabelling k={k}: k after fold, {_gap(lhs2, rhs2)}")

    _banana_split(rng, rec.cases("paired folds fuse into one fold (maxlen 2)"))

    rec.add("folding the constructors projects the list", quanta.cata(
        lambda side, body: relalg.list_label(()) if side == 0 else relalg.list_label(
            (relalg.split_pair(body)[0],) + relalg.split_list(relalg.split_pair(body)[1])
        ),
        2,
        lb2.list_basis,
    ) == relalg.from_function(lambda l: relalg.split_pair(l)[0], lb2.basis, lb2.list_basis))

    psi_id = vecmonad.materialize(quanta.psi(lib.step("id"), 2), lb2.basis)
    rec.add("one-layer unfolding of the identity is alpha",
            psi_id.close_to(vecmonad.materialize(quanta.alpha(2), lb2.basis), tol=1e-12))

    cases = rec.cases("projection-complemented steps promote to bijective folds")
    complemented = 0
    for bits in itertools.product("01", repeat=4):
        table = {x: bits[j] for j, x in enumerate(bb)}
        try:
            rel = quanta.rfold_rel(table, 2)
        except relalg.ComplementError:
            continue
        complemented += 1
        cases.check(relalg.is_bijection(rel), lambda: f"table {''.join(bits)}: the fold is no bijection")
    cases.check(complemented == 4, lambda: f"{complemented} tables are complemented, want 4")

    cases = rec.cases("one-layer unfolding preserves injectivity")
    for perm in itertools.permutations(range(4)):
        table = {bb.labels[i]: bb.labels[perm[i]] for i in range(4)}
        x = gates.lift(table, bb)
        m_psi = vecmonad.materialize(quanta.psi(x, 2), lb2.basis)
        rel = Rel(m_psi.src, m_psi.tgt, np.abs(m_psi.entries) > 0.5)
        cases.check(relalg.is_injective(rel),
                    lambda: f"step {''.join(map(str, perm))}: the unfolding layer is not injective")

    cases = rec.cases("fused unfolding route equals the direct recursion")
    for name, step in [("cnot", lib.step("cnot")), ("bell", gates.bell()), ("random", _random_unitary_op(rng, bb))]:
        direct = quanta.fold_matrix(step, 2)
        fused = vecmonad.materialize(quanta.quantamorphism_via_psi(step, 2), lb2.basis)
        cases.check(direct.close_to(fused, tol=1e-9), lambda: f"step {name}: {_gap(direct, fused)}")

    return rec.results()


def _banana_split(rng: np.random.Generator, cases: _Cases) -> None:
    """Banana split over every pair of five algebras, numbered in order:
    xor, the one that keeps the value folded from the tail, and three
    random tables."""
    bb = relalg.product_basis(BIT, BIT)
    cop = relalg.coproduct_basis(BIT, bb)
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
    folds = [quanta.cata(h, 2, BIT) for h in algebras]  # each pair reuses its two folds
    for (i, h1), (j, h2) in itertools.product(enumerate(algebras), repeat=2):
        lhs = relalg.pair(folds[i], folds[j])

        def fused(side: int, body: str, a=h1, b=h2) -> str:
            if side == 0:
                return pair_label(a(0, body), b(0, body))
            item, pairv = relalg.split_pair(body)
            c1, c2 = relalg.split_pair(pairv)
            return pair_label(a(1, pair_label(item, c1)), b(1, pair_label(item, c2)))

        rhs = quanta.cata(fused, 2, relalg.product_basis(BIT, BIT))
        cases.check(lhs == rhs,
                    lambda: f"algebras ({i}, {j}): the paired and fused folds differ on {_first_input(lhs, rhs)}")


# ---------------------------------------------------------------------------
# circuitgen

def circuitgen_suite() -> list[CheckResult]:
    from . import circuitgen

    rng = np.random.default_rng(20260814)
    rec = _Suite("circuitgen")
    lib = gates.default_library()

    cnot4 = lib.matrix("cnot")
    rec.add("the 2-bit controlled-not compiles to one cx",
            circuitgen.synth_permutation(cnot4).gates == (circuitgen.Gate("cx", (0, 1)),))

    cases = rec.cases("synthesized circuits act as their matrices")
    matrices = [cnot4]
    for _ in range(3):
        perm = rng.permutation(8)
        m = np.zeros((8, 8))
        for j, i in enumerate(perm):
            m[i, j] = 1.0
        basis = FinBasis(tuple(format(i, "03b") for i in range(8)))
        matrices.append(vecmonad.CMatrix(basis, basis, m))
    for i, m in enumerate(matrices):
        enc = circuitgen.Encoding(m.src)
        circ = circuitgen.synth_permutation(m)
        for j, label in enumerate(m.src):
            bits = enc.bits_of(label)
            got = circuitgen.simulate(circ, bits)
            expect = enc.bits_of(m.tgt.labels[int(np.argmax(np.abs(m.entries[:, j])))])
            cases.check(got == expect, lambda: f"case {i}: input {bits} gives {got}, want {expect}")

    cases = rec.cases("mcx lowering has the mcx truth table (up to 6 controls)")
    for n_controls in range(1, 7):
        anc = tuple(range(n_controls + 1, n_controls + 1 + max(0, n_controls - 2)))
        for pols in ([1] * n_controls, [0] + [1] * (n_controls - 1)):
            controls = tuple((q, pols[q]) for q in range(n_controls))
            case = f"control polarities {''.join(map(str, pols))}"
            gs = circuitgen.decompose_mcx(controls, n_controls, anc)
            kinds = sorted({g.name for g in gs} - {"x", "cx", "ccx"})
            cases.check(not kinds, lambda: f"{case}: lowered to {', '.join(kinds)}")
            width = n_controls + 1 + len(anc)
            circ = circuitgen.Circuit(width, 0, gs)
            for bits in itertools.product("01", repeat=n_controls + 1):
                inp = "".join(bits) + "0" * len(anc)
                got = circuitgen.simulate(circ, inp)
                fire = all(int(bits[q]) == p for q, p in controls)
                want = list(bits) + ["0"] * len(anc)
                if fire:
                    want[n_controls] = "1" if bits[n_controls] == "0" else "0"
                cases.check(got == "".join(want), lambda: f"{case}: input {inp} gives {got}, want {''.join(want)}")

    cases = rec.cases("peephole cancellation preserves semantics")
    for i in range(10):
        n = 3
        gs = []
        for _ in range(12):
            kind = ["x", "cx", "ccx", "h"][int(rng.integers(4))]
            qubits = tuple(int(q) for q in rng.choice(n, size=circuitgen.GATES[kind][1], replace=False))
            gs.append(circuitgen.Gate(kind, qubits))
        # The t between the word and its reverse blocks the cancellation
        # across the middle, so the result keeps gates.
        gs = gs + [circuitgen.Gate("t", (0,))] + gs[::-1]
        circ = circuitgen.Circuit(n, 0, tuple(gs))
        slim = circuitgen.peephole(circ)
        for x in range(2 ** n):
            bits = format(x, f"0{n}b")
            a = circuitgen.simulate_state(circ, AmpVec({bits: 1.0}))
            b = circuitgen.simulate_state(slim, AmpVec({bits: 1.0}))
            cases.check(vecmonad.vec_equal(a, b, tol=1e-9), lambda: f"case {i}: input {bits}, {_gap(a, b)}")

    circ = circuitgen.synth_permutation(cnot4)
    rec.add("exported QASM parses back to the same gates",
            circuitgen.parse_qasm(circuitgen.export_qasm(circ)).gates == circ.gates)

    cases = rec.cases("statevector path matches dense matrix action")
    basis = FinBasis(("00", "01", "10", "11"))
    for i in range(10):
        gs = []
        for _ in range(6):
            kind = ["x", "cx", "h", "t"][int(rng.integers(4))]
            qubits = tuple(int(q) for q in rng.choice(2, size=circuitgen.GATES[kind][1], replace=False))
            gs.append(circuitgen.Gate(kind, qubits))
        circ = circuitgen.Circuit(2, 0, tuple(gs))
        v = _random_vec(rng, basis)
        got = circuitgen.simulate_state(circ, v)
        want = (_dense_circuit_matrix(circ) @ np.array([v[b] for b in basis.labels])).tolist()
        wrong = [b for b, w in zip(basis.labels, want) if abs(got[b] - w) > 1e-9]
        cases.check(not wrong, lambda: f"case {i}: amplitude at {wrong[0]},"
                                       f" {_gap(got, AmpVec(zip(basis.labels, want)))}")

    return rec.results()


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
                fire = all(bits[q] for q in g.qubits[:-1])
                j = i ^ (1 << (n - 1 - g.qubits[-1])) if fire else i
                mat[j, i] = 1.0
            if g.name not in ("cx", "ccx"):
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
