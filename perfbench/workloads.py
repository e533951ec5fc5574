"""Seeded job lists for the three workloads, and the input files they read.

A job is one `quantakit` command line, or one `simulate_state` call, plus
the oracle that checks what it wrote.  Every input file (truth table,
matrix dump, QASM) is written here from the seed; nothing here imports
``quantakit``.  Sizes are fixed per workload and the seed picks only the
contents (list items, permutations, circuits, table labels), so that the
work in one pass barely depends on the seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from oracles import STEPS, state_label

WORKLOADS = ("quantum", "classical", "verify")

# Checks each `quantakit check <suite>` reports at the commit that defined
# this benchmark; a suite that grows or shrinks must update this table.
SUITE_CHECKS = {"relalg": 10, "vecmonad": 5, "gates": 7, "quanta": 10, "circuitgen": 6}

# Kernel-class sizes of the seeded `complement` tables: 6 to 9 elements,
# 2 to 4 classes, ordered from about 1 ms to about 1 s.  Two tables per
# profile below 9 elements, one at 9.
COMPLEMENT_PROFILES = (
    (3, 3), (4, 2), (2, 2, 2),
    (4, 3), (3, 2, 2), (2, 2, 2, 1),
    (4, 4), (3, 3, 2), (2, 2, 2, 2),
    (5, 4), (4, 3, 2), (3, 3, 3),
)

# Gates after the opening Hadamard layer of the random `simulate_state`
# circuits, by qubit count.
RANDOM_CIRCUIT_GATES = {6: 400, 7: 300, 8: 250, 9: 200, 10: 150}

# Random x/cx/ccx permutation circuits fed a uniform superposition, as
# (qubits, gates).
PERMUTATION_CIRCUITS = ((5, 1200), (5, 1200), (6, 2000), (6, 2000))


@dataclass
class Job:
    """One unit of closed-loop work.

    ``argv`` is a `quantakit` command line; a job without one calls
    ``simulate_state`` on the circuit in ``qasm`` with input ``amps``.
    ``outputs`` names the files the job writes, by role.  ``check`` gets
    the bytes of those files (and, for a state job, ``state`` and ``qasm``)
    and raises ``oracles.OracleError`` on a wrong answer; for a synthesis
    job it returns the circuit counts.
    """

    id: str
    check: Callable[[dict], dict | None]
    argv: list[str] | None = None
    outputs: dict[str, Path] = field(default_factory=dict)
    qasm: Path | None = None
    amps: dict[str, complex] | None = None


def build(workload: str, seed: int, root: Path, work: Path) -> list[Job]:
    """The job list of one pass; writes its input files under ``work``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    work.mkdir(parents=True, exist_ok=True)
    return {"quantum": _quantum, "classical": _classical, "verify": _verify}[workload](rng, root, work)


# ---------------------------------------------------------------------------
# Input writers

def write_matrix_dump(path: Path, perm: np.ndarray) -> None:
    """Permutation matrix (column j has its 1 in row perm[j]) in the text
    dump format: a header of column labels, then ``label: cells`` rows."""
    n = len(perm)
    labels = [f"s{j}" for j in range(n)]
    rows = np.full((n, n), "0+0i", dtype=object)
    rows[perm, np.arange(n)] = "1+0i"
    lines = [" ".join(labels)] + [f"{labels[i]}: " + " ".join(rows[i]) for i in range(n)]
    path.write_text("\n".join(lines) + "\n")


def write_random_qasm(path: Path, n: int, count: int, rng: np.random.Generator,
                      kinds: tuple[str, ...] = ("x", "h", "t", "tdg", "cx", "ccx"),
                      hadamards: bool = True) -> None:
    """An optional Hadamard on every qubit, then ``count`` random gates."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    if hadamards:
        lines += [f"h q[{q}];" for q in range(n)]
    for _ in range(count):
        kind = kinds[rng.integers(len(kinds))]
        qs = rng.choice(n, oracles.ARITY[kind], replace=False)
        lines.append(f"{kind} " + ",".join(f"q[{q}]" for q in qs) + ";")
    path.write_text("\n".join(lines) + "\n")


def _bits(i: int, k: int) -> str:
    return format(int(i), f"0{k}b")


def _uniform(k: int) -> dict[str, complex]:
    amp = complex(1.0 / np.sqrt(2.0 ** k))
    return {_bits(i, k): amp for i in range(1 << k)}


def _perm_of(m: np.ndarray) -> np.ndarray:
    if not np.allclose(np.abs(m), np.round(np.abs(m))) or not np.allclose(m.sum(axis=0), 1):
        raise ValueError("reference fold is not a permutation")
    return np.argmax(np.abs(m), axis=0)


def _golden(root: Path, name: str) -> Path:
    return root / "tests" / "goldens" / name


def _text(outs: dict, role: str = "out") -> str:
    return outs[role].decode()


# ---------------------------------------------------------------------------
# Job makers

def _run_job(step: str, n: int, rng: np.random.Generator, work: Path) -> Job:
    _, items, payloads = STEPS[step]
    xs = tuple(str(items[i]) for i in rng.integers(len(items), size=n))
    b = payloads[rng.integers(len(payloads))]
    out = work / f"run-{step}-n{n}.txt"
    return Job(
        f"run-{step}-n{n}",
        lambda o: oracles.check_state_text(_text(o), step, xs, b),
        argv=["run", "--step", step, "--input", state_label(xs, b), "--out", str(out)],
        outputs={"out": out},
    )


def _matrix_job(step: str, maxlen: int, work: Path, golden: Path | None = None) -> Job:
    out = work / f"matrix-{step}-m{maxlen}.txt"

    def check(o: dict) -> None:
        oracles.check_matrix_text(_text(o), step, maxlen)
        if golden is not None:
            oracles.check_bytes(o["out"], golden.read_bytes(), golden.name)

    return Job(
        f"matrix-{step}-m{maxlen}",
        check,
        argv=["matrix", "--step", step, "--maxlen", str(maxlen), "--out", str(out)],
        outputs={"out": out},
    )


def _synth_perm_job(name: str, perm: np.ndarray, work: Path) -> Job:
    dump, out, qasm = (work / f"{name}{ext}" for ext in (".mat", ".json", ".qasm"))
    write_matrix_dump(dump, perm)
    return Job(
        f"synth-{name}",
        lambda o: oracles.check_synth(_text(o), _text(o, "qasm"), perm),
        argv=["synth", "--matrix-file", str(dump), "--qasm", str(qasm), "--out", str(out)],
        outputs={"out": out, "qasm": qasm},
    )


def _pinned16_perm(step: str) -> np.ndarray:
    states = oracles.list_basis(step, 2) + [(("0", "0", "0"), "0"), (("0", "0", "0"), "1")]
    return _perm_of(oracles.fold_matrix(step, states)[1])


def _synth_pinned16_job(step: str, work: Path, golden: Path | None = None) -> Job:
    out, qasm = work / f"pinned16-{step}.json", work / f"pinned16-{step}.qasm"
    perm = _pinned16_perm(step)

    def check(o: dict) -> dict:
        counts = oracles.check_synth(_text(o), _text(o, "qasm"), perm)
        if golden is not None:
            oracles.check_bytes(o["out"], golden.read_bytes(), golden.name)
        return counts

    return Job(
        f"synth-pinned16-{step}",
        check,
        argv=["synth", "--maxlen", "pinned16", "--step", step, "--qasm", str(qasm), "--out", str(out)],
        outputs={"out": out, "qasm": qasm},
    )


def _simulate_job(name: str, qasm: Path, perm: np.ndarray, x: int, work: Path) -> Job:
    k = len(perm).bit_length() - 1
    out = work / f"simulate-{name}.txt"
    want = _bits(perm[x], k)
    return Job(
        f"simulate-{name}",
        lambda o: oracles.check_bits(_text(o), want),
        argv=["simulate", str(qasm), _bits(x, k), "--out", str(out)],
        outputs={"out": out},
    )


def _state_job(name: str, qasm: Path, amps: dict[str, complex]) -> Job:
    return Job(
        f"state-{name}",
        lambda o: oracles.check_state_dict(o["state"], _text(o, "qasm"), amps),
        qasm=qasm,
        amps=amps,
    )


def _complement_job(name: str, table: Path, domain: list[str], f: dict[str, str],
                    work: Path, count: int | None = None) -> Job:
    out = work / f"complement-{name}.txt"

    def check(o: dict) -> None:
        found = oracles.check_complements(_text(o), domain, f)
        if count is not None and found != count:
            raise oracles.OracleError(f"{table.name}: {found} complements, want {count}")

    return Job(
        f"complement-{name}",
        check,
        argv=["complement", str(table), "--out", str(out)],
        outputs={"out": out},
    )


def _read_table(path: Path) -> tuple[list[str], dict[str, str]]:
    pairs = [ln.split("->") for ln in path.read_text().splitlines() if "->" in ln]
    f = {lhs.strip(): rhs.strip() for lhs, rhs in pairs}
    return list(f), f


# ---------------------------------------------------------------------------
# Workloads

def _quantum(rng: np.random.Generator, root: Path, work: Path) -> list[Job]:
    """Superposing steps: output support doubles with every list item."""
    jobs = [_run_job(step, n, rng, work)
            for step in ("bell", "cond", "unbell", "alice") for n in range(6, 11)]
    golden = _golden(root, "fold_bell_maxlen2.txt")
    for step, maxlens in (("bell", (2, 3, 4)), ("cond", (2, 3, 4)),
                          ("unbell", (2, 3, 4)), ("alice", (2, 3))):
        for m in maxlens:
            jobs.append(_matrix_job(step, m, work, golden if (step, m) == ("bell", 2) else None))
    for i, (n, count) in enumerate(PERMUTATION_CIRCUITS):
        qasm = work / f"perm{i}-q{n}.qasm"
        write_random_qasm(qasm, n, count, rng, ("x", "cx", "ccx"), hadamards=False)
        jobs.append(_state_job(f"perm{i}-q{n}", qasm, _uniform(n)))
    for n, count in RANDOM_CIRCUIT_GATES.items():
        qasm = work / f"rand-q{n}.qasm"
        write_random_qasm(qasm, n, count, rng)
        jobs.append(_state_job(f"rand-q{n}", qasm, {_bits(rng.integers(1 << n), n): 1.0 + 0j}))
    jobs.append(_synth_pinned16_job("cnot", work, _golden(root, "synth_cnot16_metrics.json")))
    return jobs


def _classical(rng: np.random.Generator, root: Path, work: Path) -> list[Job]:
    """Permutation steps and circuits: output support stays at one."""
    jobs = [_run_job(step, n, rng, work) for step in ("cnot", "id") for n in range(6, 13)]
    jobs += [_run_job("ccnot", n, rng, work) for n in range(3, 8)]
    golden = _golden(root, "fold_cnot_maxlen2.txt")
    jobs += [_matrix_job(step, m, work, golden if (step, m) == ("cnot", 2) else None)
             for step in ("cnot", "id") for m in (2, 3, 4)]
    circuits = []
    metrics = _golden(root, "synth_cnot16_metrics.json")
    for step in ("cnot", "id"):
        jobs.append(_synth_pinned16_job(step, work, metrics if step == "cnot" else None))
        circuits.append((f"pinned16-{step}", _pinned16_perm(step)))
    for i, k in enumerate((5, 6, 7, 8, 8, 8)):
        name, perm = f"perm{i}-k{k}", rng.permutation(1 << k)
        jobs.append(_synth_perm_job(name, perm, work))
        circuits.append((name, perm))
    for name, perm in circuits:
        for j, x in enumerate(rng.choice(len(perm), 2, replace=False)):
            jobs.append(_simulate_job(f"{name}-in{j}", work / f"{name}.qasm", perm, int(x), work))
    return jobs


def _verify(rng: np.random.Generator, root: Path, work: Path) -> list[Job]:
    """The checkers: the five invariant suites and the complement search."""
    jobs = []
    for suite, total in SUITE_CHECKS.items():
        out = work / f"check-{suite}.txt"
        jobs.append(Job(
            f"check-{suite}",
            lambda o, s=suite, t=total: oracles.check_suite_text(_text(o), s, t),
            argv=["check", suite, "--out", str(out)],
            outputs={"out": out},
        ))
    xor = root / "tests" / "data" / "xor.tbl"
    jobs.append(_complement_job("xor", xor, *_read_table(xor), work, count=2))
    for sizes in COMPLEMENT_PROFILES:
        for copy in range(1 if sum(sizes) == 9 else 2):
            # The class layout is fixed per profile, because the search's
            # cost depends on it; the seed picks the labels.
            layout = np.random.default_rng([sum(sizes), copy, *sizes]).permutation(
                [c for c, s in enumerate(sizes) for _ in range(s)])
            names = rng.choice(10 ** 6, len(layout) + len(sizes), replace=False)
            domain = [f"a{v}" for v in names[: len(layout)]]
            f = {x: f"c{names[len(layout) + c]}" for x, c in zip(domain, layout)}
            name = f"n{len(domain)}-" + "".join(map(str, sizes)) + f"-{copy}"
            table = work / f"{name}.tbl"
            table.write_text("".join(f"{x} -> {y}\n" for x, y in f.items()))
            jobs.append(_complement_job(name, table, domain, f, work))
    jobs.append(_synth_pinned16_job("cnot", work, _golden(root, "synth_cnot16_metrics.json")))
    return jobs
