import json

import numpy as np
import pytest

from quantakit import checks, circuitgen, gates, quanta, relalg, vecmonad
from quantakit.circuitgen import Circuit, Gate
from quantakit.cli import main
from quantakit.relalg import BIT, FinBasis, Rel, coproduct_basis, pair_label, product_basis, split_pair
from quantakit.vecmonad import AmpVec, KleisliOp


@pytest.mark.parametrize("suite", list(checks.SUITES))
def test_every_check_in_the_suite_passes(suite):
    results = checks.SUITES[suite]()
    assert results and all(r.suite == suite for r in results)
    failed = [f"{r.name} -- {r.detail}" if r.detail else r.name for r in results if not r.ok]
    assert failed == []


LUB = "pairing is the least upper bound (2-element bases)"
LUB3 = "pairing is the least upper bound (3-element source)"
EXCHANGE = "exchange law (exhaustive 2-element bases)"
_pair, _either, _kernel = relalg.pair, relalg.either, relalg.kernel


def _pair_tgt(r: Rel, s: Rel) -> FinBasis:
    return product_basis(r.tgt, s.tgt)


# Broken operators that keep their types, so that every check still runs.
BROKEN = {
    "pair": {
        "swapped factors": lambda r, s: Rel(r.src, _pair_tgt(r, s), _pair(s, r).entries),
        "union instead of meet": lambda r, s: Rel(
            r.src, _pair_tgt(r, s),
            (r.entries[:, None, :] | s.entries[None, :, :]).reshape(len(r.tgt) * len(s.tgt), -1)),
        "second factor ignored": lambda r, s: _pair(r, Rel(s.src, s.tgt, np.ones_like(s.entries))),
    },
    "either": {
        "swapped junc blocks": lambda r, s: Rel(coproduct_basis(r.src, s.src), r.tgt, _either(s, r).entries),
        "dropped junc block": lambda r, s: Rel(
            coproduct_basis(r.src, s.src), r.tgt,
            np.concatenate([r.entries, np.zeros_like(s.entries)], axis=1)),
    },
    "kernel": {
        "identity": lambda r: relalg.identity(r.src),
        "upper triangle": lambda r: Rel(r.src, r.src, np.triu(_kernel(r).entries)),
        "off-diagonal needs two witnesses": lambda r: Rel(r.src, r.src, np.where(
            np.eye(len(r.src), dtype=bool), _kernel(r).entries,
            r.entries.T.astype(int) @ r.entries.astype(int) > 1)),
    },
}
MUTATIONS = [(op, name) for op, named in BROKEN.items() for name in named]


def _relalg_results() -> dict[str, checks.CheckResult]:
    return {r.name: r for r in checks.relalg_suite()}


# The mutations under which the kernel of a split is not the meet of its
# factors' kernels.  The identity and upper-triangle kernels still take
# splits to meets, swapped factors keep the meet and no junc takes part, so
# no least-upper-bound law can see the others.
NOT_A_MEET = [("pair", "union instead of meet"), ("pair", "second factor ignored"),
              ("kernel", "off-diagonal needs two witnesses")]


@pytest.mark.parametrize("op, mutation", MUTATIONS, ids=[f"{op}-{m}" for op, m in MUTATIONS])
def test_the_3_element_least_upper_bound_reads_the_library_split(monkeypatch, op, mutation):
    monkeypatch.setattr(relalg, op, BROKEN[op][mutation])
    results = _relalg_results()
    assert results[LUB3].ok == results[LUB].ok == ((op, mutation) not in NOT_A_MEET)


SPLITS_AND_JUNCS = [m for m in MUTATIONS if m[0] != "kernel"]


@pytest.mark.parametrize("op, mutation", SPLITS_AND_JUNCS, ids=[f"{op}-{m}" for op, m in SPLITS_AND_JUNCS])
def test_the_exchange_law_catches_every_broken_split_and_junc(monkeypatch, op, mutation):
    monkeypatch.setattr(relalg, op, BROKEN[op][mutation])
    assert not _relalg_results()[EXCHANGE].ok


def test_a_failed_law_names_its_first_counterexample(monkeypatch):
    monkeypatch.setattr(relalg, "pair", BROKEN["pair"]["union instead of meet"])
    results = _relalg_results()
    assert results[EXCHANGE].detail == "first counterexample r=00/00, s=00/00, t=00/00, v=10/00"
    assert results[LUB].detail == "first counterexample r=00/00, s=00/01, x=00/01"
    assert results[LUB3].detail == "first counterexample r=000/000, s=000/001, x=000/001"


def test_json_keeps_the_counterexamples_the_text_prints(monkeypatch, capsys):
    assert main(["check", "gates", "--format", "json"]) == 0
    assert "details" not in json.loads(capsys.readouterr().out)["gates"]
    monkeypatch.setattr(relalg, "pair", BROKEN["pair"]["union instead of meet"])
    assert main(["check", "relalg"]) == 1
    text = capsys.readouterr().out
    assert main(["check", "relalg", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)["relalg"]
    named = [line for line in text.splitlines() if " -- " in line]
    assert [f"  [FAIL] {n} -- {d}" for n, d in doc["details"].items()] == named
    assert set(doc["details"]) <= set(doc["failures"])
    assert doc["details"][EXCHANGE] == "first counterexample r=00/00, s=00/00, t=00/00, v=10/00"


# The loops of every suite run every case and name the first that fails.
# Each broken operator below keeps its types; the details name the cases
# the suites' seeds draw, and a check that is no loop fails without one
# (None).  The suite run is the one named after the operator's module, or
# the fifth element.
_bind, _add = vecmonad.bind, vecmonad.add
_simulate, _decompose_mcx, _simulate_state = circuitgen.simulate, circuitgen.decompose_mcx, circuitgen.simulate_state
_peephole, _cancel, _parse_qasm = circuitgen.peephole, circuitgen._cancel, circuitgen.parse_qasm
_minimal_complements = relalg.minimal_complements
_fold_matrix, _rfold_rel, _cata, _psi = quanta.fold_matrix, quanta.rfold_rel, quanta.cata, quanta.psi
_choice, _mccarthy, _bell, _unbell = gates.choice, gates.mccarthy, gates.bell, gates.unbell
_unitarity_gap = vecmonad.unitarity_gap


def _both_branches(f, g):
    """A ``choice`` that sends every control through the sum of f and g."""
    def apply(label):
        a, b = split_pair(label)
        return AmpVec({pair_label(a, k): amp for k, amp in vecmonad.add(f.apply(b), g.apply(b)).items()})

    return KleisliOp(product_basis(BIT, f.src), apply)


def _refuse(table, maxlen):
    """An ``rfold_rel`` that takes no table as projection-complemented."""
    raise relalg.ComplementError("refused")


ACTS, MCX = "synthesized circuits act as their matrices", "mcx lowering has the mcx truth table (up to 6 controls)"
CNOT_ROUTES, GUARDED = "cnot: split route and choice route coincide", "guarded choice of unitaries is unitary"
BELL = "bell and unbell are adjoint blocks of the cnot/hadamard pair"
LOOP_MUTATIONS = {
    "kernel upper triangle": (relalg, "kernel", BROKEN["kernel"]["upper triangle"], {
        "kernel of a function is an equivalence": "f=011/100",
    }),
    "meet as union": (relalg, "meet", lambda r, s: Rel(r.src, r.tgt, r.entries | s.entries), {
        "kernel of a split meets the kernels":
            "r=000/000, s=001/100: the kernel of <r,s> is not the meet of theirs",
    }),
    "compose to the empty relation": (
        relalg, "compose", lambda r, s: Rel(s.src, r.tgt, np.zeros((len(r.tgt), len(s.src)), dtype=bool)), {
            "bijection iff kernel and image are identities":
                "f=001/100/010: bijection True, identity kernel and image False",
            "injectivity shunting law": "g=10/00/01, r=111/110, s=11/11",
            "difunctionality equals the column criterion": "r=110/111/011: column criterion False",
            "envelope is a self-inverse bijection refining f": "f=1111/0000: the envelope is not self-inverse",
        }),
    "minimal_complements keeps its first partition": (relalg, "minimal_complements", lambda f: _minimal_complements(f)[:1], {
        "xor has exactly the two projection complements": "1 minimal complements",
    }),
    "bind conjugates": (vecmonad, "bind", lambda v, f: AmpVec({k: a.conjugate() for k, a in _bind(v, f).items()}), {
        "monad laws (1000 randomized cases)": "case 0: left unit at a=(1,1), sup-norm gap 4.5",
        "materialize is functorial": "case 0: Kleisli composite, sup-norm gap 9.35",
    }),
    "kron transposes its right factor": (vecmonad, "kron", lambda a, b: vecmonad.CMatrix(
        product_basis(a.src, b.src), product_basis(a.tgt, b.tgt), np.kron(a.entries, b.entries.T)), {
            "tensor materializes to the Kronecker product": "case 0: sup-norm gap 6.94",
        }),
    "add scales its sum": (vecmonad, "add", lambda u, v: vecmonad.scale(1 + 1e-9, _add(u, v)), {
        "pruning is invisible above 10x the prune epsilon": "case 0: sup-norm gap 2.12e-09",
    }),
    "nothing is unitary": (vecmonad, "is_unitary", lambda m, tol=1e-9: False, {
        "unitary ops close under composition and tensor": "case 0: the composite is not unitary",
    }),
    "simulate flips the last output bit": (circuitgen, "simulate", lambda c, bits: (
        lambda o: o[:-1] + "10"[int(o[-1])])(_simulate(c, bits)), {
            ACTS: "case 0: input 00 gives 01, want 00",
            MCX: "control polarities 1: input 00 gives 01, want 00",
        }),
    # Synthesis cancels through circuitgen._cancel, not peephole, so only
    # the peephole check sees these two.
    "peephole keeps the first half": (circuitgen, "peephole", lambda c: Circuit(
        c.data_qubits, c.ancilla_qubits, c.gates[: len(c.gates) // 2]), {
            "peephole cancellation preserves semantics": "case 0: input 000, sup-norm gap 1",
        }),
    "peephole drops its last kept gate": (circuitgen, "peephole", lambda c: (lambda r: Circuit(
        r.data_qubits, r.ancilla_qubits, r.gates[:-1]))(_peephole(c)), {
            "peephole cancellation preserves semantics": "case 0: input 000, sup-norm gap 1",
        }),
    # The cancellation that peephole and synthesis share.
    "cancellation drops its last kept gate": (circuitgen, "_cancel", lambda *args: (lambda r: Circuit(
        r.data_qubits, r.ancilla_qubits, r.gates[:-1]))(_cancel(*args)), {
            "the 2-bit controlled-not compiles to one cx": None,
            ACTS: "case 0: input 10 gives 10, want 11",
            "peephole cancellation preserves semantics": "case 0: input 000, sup-norm gap 1",
        }),
    # decompose_mcx reads polarities itself; synthesis reads them from
    # each swap's state, so only the mcx check sees this one.
    "decompose_mcx ignores polarity": (circuitgen, "decompose_mcx", lambda controls, target, ancillas: _decompose_mcx(
        tuple((q, 1) for q, _ in controls), target, ancillas), {
            MCX: "control polarities 0: input 00 gives 00, want 01",
        }),
    # The flip assembly that decompose_mcx and each synthesized swap share.
    "swaps keep only their leading flips": (circuitgen, "_with_flips", lambda flips, core: flips + core, {
            ACTS: "case 1: input 000 gives 100, want 011",
            MCX: "control polarities 0: input 00 gives 11, want 01",
        }),
    "decompose_mcx pads with two h": (circuitgen, "decompose_mcx", lambda controls, target, ancillas: _decompose_mcx(
        controls, target, ancillas) + (Gate("h", (target,)),) * 2, {
            MCX: "control polarities 1: lowered to h",
        }),
    "parse_qasm drops its last gate": (circuitgen, "parse_qasm", lambda text: (lambda c: Circuit(
        c.data_qubits, c.ancilla_qubits, c.gates[:-1]))(_parse_qasm(text)), {
            "exported QASM parses back to the same gates": None,
        }),
    "simulate_state conjugates": (circuitgen, "simulate_state", lambda c, v: AmpVec(
        {k: a.conjugate() for k, a in _simulate_state(c, v).items()}), {
            "statevector path matches dense matrix action": "case 0: amplitude at 00, sup-norm gap 5",
        }),
    "fold_matrix doubles": (quanta, "fold_matrix", lambda step, maxlen: (lambda f: vecmonad.CMatrix(
        f.src, f.tgt, 2 * f.entries))(_fold_matrix(step, maxlen)), {
            "fold of a unitary step is unitary (20 random steps)":
                "step 0: unitarity gap 3",
            "fold of the identity step is the identity": None,
            "fused unfolding route equals the direct recursion": "step cnot: sup-norm gap 1",
        }),
    "fold_matrix shifts its rows": (quanta, "fold_matrix", lambda step, maxlen: (lambda f: vecmonad.CMatrix(
        f.src, f.tgt, np.roll(f.entries, 1, axis=0)))(_fold_matrix(step, maxlen)), {
            "outputs keep the input list length": "step 0: ([0,0],0) reaches ([],0)",
            "fold of the identity step is the identity": None,
            "free theorems for item relabelings (maxlen 2)": "relabelling k=10: k after fold, sup-norm gap 1",
            "fused unfolding route equals the direct recursion": "step cnot: sup-norm gap 1",
        }),
    "rfold_rel adds the identity": (quanta, "rfold_rel", lambda table, maxlen: (lambda r: Rel(
        r.src, r.tgt, r.entries | np.eye(len(r.src), dtype=bool)))(_rfold_rel(table, maxlen)), {
            "projection-complemented steps promote to bijective folds": "table 0110: the fold is no bijection",
        }),
    "rfold_rel refuses every table": (quanta, "rfold_rel", _refuse, {
        "projection-complemented steps promote to bijective folds": "0 tables are complemented, want 4",
    }),
    "cata rotates its carrier": (quanta, "cata", lambda algebra, maxlen, carrier: (lambda f: Rel(
        f.src, f.tgt, np.roll(f.entries, 1, axis=0)))(_cata(algebra, maxlen, carrier)), {
            "paired folds fuse into one fold (maxlen 2)":
                "algebras (0, 0): the paired and fused folds differ on ([],0)",
            "folding the constructors projects the list": None,
        }),
    "psi forgets its input": (quanta, "psi", lambda x, maxlen: vecmonad.kleisli(vecmonad.lift(
        lambda label: "([],0)", quanta.ListBasis(maxlen).basis), _psi(x, maxlen)), {
            "one-layer unfolding of the identity is alpha": None,
            "one-layer unfolding preserves injectivity": "step 0123: the unfolding layer is not injective",
            "fused unfolding route equals the direct recursion": "step cnot: sup-norm gap 1",
        }),
    "choice adds its branches": (gates, "choice", _both_branches, {
        "choice of classical bijections is a permutation": "f=01, g=01: no permutation matrix",
        CNOT_ROUTES: "input (0,0): the split and choice routes differ",
        GUARDED: "case 0: unitarity gap 1.49",
    }),
    "choice swaps its branches": (gates, "choice", lambda f, g: _choice(g, f), {
        CNOT_ROUTES: "input (0,0): the split and choice routes differ",
    }),
    "mccarthy adds the identity": (gates, "mccarthy", lambda p, f, g: (lambda op: KleisliOp(
        op.src, lambda x: vecmonad.add(op.apply(x), vecmonad.ret(x))))(_mccarthy(p, f, g)), {
            GUARDED: "case 0: unitarity gap 1.53",
        }),
    "u_construct ignores f": (relalg, "u_construct", lambda f, m: relalg.identity(product_basis(f.src, m.carrier)), {
        "ccnot: envelope route equals the lifted table": "input ((1,1),0): the envelope and the lifted table differ",
    }, "gates"),
    "matmul drops the imaginary part": (vecmonad, "matmul", lambda a, b: vecmonad.CMatrix(
        b.src, a.tgt, (a.entries @ b.entries).real), {
            "h squares and t eighth-powers to the identity": "t to the eighth against the identity, sup-norm gap 0.938",
        }, "gates"),
    "unitarity_gap of twice the matrix": (vecmonad, "unitarity_gap", lambda m: _unitarity_gap(
        vecmonad.CMatrix(m.src, m.tgt, 2 * m.entries)), {
            "every library gate is unitary": "gate x: unitarity gap 3",
            GUARDED: "case 0: unitarity gap 3",
        }, "gates"),
    "bell is unbell": (gates, "bell", _unbell, {
        BELL: "bell against cnot after h on the first bit, sup-norm gap 0.707",
    }),
    "unbell is bell": (gates, "unbell", _bell, {
        BELL: "unbell against the adjoint of bell, sup-norm gap 0.707",
    }),
}


@pytest.mark.parametrize("mutation", list(LOOP_MUTATIONS))
def test_a_failed_loop_names_its_first_failing_case(monkeypatch, mutation):
    module, name, broken, details, *suite = LOOP_MUTATIONS[mutation]
    gates.default_library()  # built before the mutation, which would refuse its gates
    monkeypatch.setattr(module, name, broken)
    results = checks.SUITES[suite[0] if suite else module.__name__.rsplit(".", 1)[-1]]()
    assert {r.name: r.detail for r in results if not r.ok} == {
        check: "" if detail is None else "first counterexample " + detail for check, detail in details.items()}



def test_the_monad_law_cases_are_the_seven_draw_cases():
    """Three draws per case give the cases, in order, that two Kleisli
    arrows (real then imaginary normals each), one index and one ket (real
    then imaginary normals) drew one call at a time, and leave the
    vecmonad suite's generator in the same state for the checks after."""
    fast, slow = np.random.default_rng(20260811), np.random.default_rng(20260811)
    for fm, gm, k, vp in checks._monad_law_draws(fast, 1000):
        want_f = slow.normal(size=(4, 4)) + 1j * slow.normal(size=(4, 4))
        want_g = slow.normal(size=(4, 4)) + 1j * slow.normal(size=(4, 4))
        want_k = int(slow.integers(4))
        want_v = [slow.normal(size=4), slow.normal(size=4)]
        assert np.array_equal(fm, want_f) and np.array_equal(gm, want_g)
        assert k == want_k and np.array_equal(vp, want_v)
    assert fast.bit_generator.state == slow.bit_generator.state
