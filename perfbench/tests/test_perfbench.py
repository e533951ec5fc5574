"""Tests of the benchmark's own code.

Each oracle accepts the program's real output and rejects it once
corrupted; no oracle imports the program under test; a cheap slice of
every workload passes through the timed loop with no failure.
"""
from __future__ import annotations

import ast
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from oracles import OracleError  # noqa: E402
from quantakit import circuitgen, cli, vecmonad  # noqa: E402


def _cli(tmp_path: Path, *argv: str) -> str:
    out = tmp_path / "out.txt"
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out.read_text()


def _replace_amp(line: str, amp: str) -> str:
    label, _, _ = line.rpartition(": ")
    return f"{label}: {amp}"


@pytest.mark.parametrize("path", ["oracles.py", "workloads.py"])
def test_reference_code_does_not_import_the_program(path):
    tree = ast.parse((BENCH / path).read_text())
    names = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    names += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert not [n for n in names if n.split(".")[0] == "quantakit"]


@pytest.mark.parametrize("step,items,payload", [
    ("bell", ("1", "0", "1"), "0"),
    ("cond", ("0", "1", "1", "0"), "1"),
    ("unbell", ("1", "1", "0"), "1"),
    ("alice", ("0", "1", "1"), "(1,0)"),
    ("cnot", ("1", "0", "1", "1"), "0"),
    ("ccnot", ("(1,1)", "(0,1)", "(1,1)"), "0"),
])
def test_fold_oracle_accepts_run_and_rejects_one_changed_amplitude(tmp_path, step, items, payload):
    text = _cli(tmp_path, "run", "--step", step, "--input", oracles.state_label(items, payload))
    oracles.check_state_text(text, step, items, payload)
    lines = text.splitlines()
    lines[-1] = _replace_amp(lines[-1], "0.123+0i")
    with pytest.raises(OracleError):
        oracles.check_state_text("\n".join(lines) + "\n", step, items, payload)


def test_fold_oracle_rejects_a_missing_or_reordered_state(tmp_path):
    text = _cli(tmp_path, "run", "--step", "bell", "--input", "([1,0],0)")
    lines = text.splitlines()
    for bad in (lines[1:], lines[::-1]):
        with pytest.raises(OracleError):
            oracles.check_state_text("\n".join(bad) + "\n", "bell", ("1", "0"), "0")


@pytest.mark.parametrize("step,maxlen", [
    ("bell", 3), ("cond", 2), ("unbell", 2), ("alice", 2), ("cnot", 3), ("id", 2), ("ccnot", 1),
])
def test_matrix_oracle_accepts_dump_and_rejects_one_changed_cell(tmp_path, step, maxlen):
    text = _cli(tmp_path, "matrix", "--step", step, "--maxlen", str(maxlen))
    oracles.check_matrix_text(text, step, maxlen)
    lines = text.splitlines()
    label, _, cells = lines[3].partition(": ")
    lines[3] = f"{label}: " + " ".join(["0.5+0i"] + cells.split(" ")[1:])
    with pytest.raises(OracleError):
        oracles.check_matrix_text("\n".join(lines) + "\n", step, maxlen)


@pytest.mark.parametrize("step", ["bell", "cnot"])
def test_golden_byte_comparison(tmp_path, step):
    golden = (ROOT / "tests" / "goldens" / f"fold_{step}_maxlen2.txt").read_bytes()
    text = _cli(tmp_path, "matrix", "--step", step, "--maxlen", "2")
    oracles.check_bytes(text.encode(), golden, step)
    with pytest.raises(OracleError):
        oracles.check_bytes(text.encode() + b"\n", golden, step)


def _synth(tmp_path: Path, perm: np.ndarray) -> tuple[str, str]:
    dump, qasm = tmp_path / "m.txt", tmp_path / "c.qasm"
    workloads.write_matrix_dump(dump, perm)
    metrics = _cli(tmp_path, "synth", "--matrix-file", str(dump), "--qasm", str(qasm))
    return metrics, qasm.read_text()


def _own_metrics(qasm: str) -> str:
    n, anc, gates = oracles.parse_qasm(qasm)
    return json.dumps({"size": len(gates), "cx": sum(g == "cx" for g, _ in gates),
                       "depth": oracles.circuit_depth(n + anc, gates)})


def test_synth_oracle_rejects_a_dropped_gate_and_a_dirty_ancilla(tmp_path):
    perm = np.random.default_rng(7).permutation(16)
    metrics, qasm = _synth(tmp_path, perm)
    counts = oracles.check_synth(metrics, qasm, perm)
    assert counts["gates"] == json.loads(metrics)["size"] and counts["ancillas"] == 1
    lines = qasm.splitlines()
    gate_rows = [i for i, ln in enumerate(lines) if ln.startswith(("x ", "cx ", "ccx "))]
    dropped = lines[: gate_rows[len(gate_rows) // 2]] + lines[gate_rows[len(gate_rows) // 2] + 1:]
    dropped_text = "\n".join(dropped) + "\n"
    with pytest.raises(OracleError, match="realize|dirty"):
        oracles.check_synth(_own_metrics(dropped_text), dropped_text, perm)
    wrong_size = json.dumps({**json.loads(metrics), "size": json.loads(metrics)["size"] + 1})
    with pytest.raises(OracleError, match="differ"):
        oracles.check_synth(wrong_size, qasm, perm)
    dirty = qasm + "x anc[0];\n"
    with pytest.raises(OracleError, match="dirty"):
        oracles.check_synth(_own_metrics(dirty), dirty, perm)


def test_synth_oracle_matches_the_pinned16_golden(tmp_path):
    qasm = tmp_path / "p.qasm"
    metrics = _cli(tmp_path, "synth", "--maxlen", "pinned16", "--step", "cnot", "--qasm", str(qasm))
    oracles.check_synth(metrics, qasm.read_text(), workloads._pinned16_perm("cnot"))
    with pytest.raises(OracleError):
        oracles.check_synth(metrics, qasm.read_text(), workloads._pinned16_perm("id"))


def test_simulate_oracle(tmp_path):
    perm = np.random.default_rng(3).permutation(8)
    _, qasm = _synth(tmp_path, perm)
    path = tmp_path / "c.qasm"
    text = _cli(tmp_path, "simulate", str(path), "101")
    oracles.check_bits(text, format(perm[5], "03b"))
    with pytest.raises(OracleError):
        oracles.check_bits(text, format(perm[5] ^ 1, "03b"))


def test_state_oracle_rejects_one_changed_amplitude(tmp_path):
    path = tmp_path / "r.qasm"
    workloads.write_random_qasm(path, 4, 40, np.random.default_rng(5))
    text = path.read_text()
    amps = {"0110": 0.6 + 0j, "1011": 0.8j}
    got = dict(circuitgen.simulate_state(circuitgen.parse_qasm(text), vecmonad.AmpVec(amps)).items())
    oracles.check_state_dict(got, text, amps)
    label = next(iter(got))
    got[label] += 1e-6
    with pytest.raises(OracleError):
        oracles.check_state_dict(got, text, amps)


def test_complement_oracle_rejects_non_maximal_and_invalid_partitions(tmp_path):
    table = ROOT / "tests" / "data" / "xor.tbl"
    domain, f = workloads._read_table(table)
    text = _cli(tmp_path, "complement", str(table))
    assert oracles.check_complements(text, domain, f) == 2
    singletons = ["1 minimal complement(s)", "complement 1: blocks {(0,0)} {(0,1)} {(1,0)} {(1,1)}"]
    singletons += [f"  {x} -> {x}" for x in domain]
    with pytest.raises(OracleError, match="could merge"):
        oracles.check_complements("\n".join(singletons) + "\n", domain, f)
    clash = ["1 minimal complement(s)", "complement 1: blocks {(0,0),(1,1)} {(0,1),(1,0)}",
             "  (0,0) -> (0,0)", "  (0,1) -> (0,1)", "  (1,0) -> (0,1)", "  (1,1) -> (0,0)"]
    with pytest.raises(OracleError, match="kernel class"):
        oracles.check_complements("\n".join(clash) + "\n", domain, f)
    first_only = text.split("complement 2:")[0].replace("2 minimal", "1 minimal")
    with pytest.raises(OracleError, match="maximal partitions"):
        oracles.check_complements(first_only, domain, f)


def test_maximal_partitions_by_brute_force():
    assert len(oracles.maximal_partitions([0, 1, 1, 0])) == 2
    assert oracles.maximal_partitions([0, 0, 0]) == [((0,), (1,), (2,))]
    assert oracles.maximal_partitions([0, 1, 2]) == [((0, 1, 2),)]


def test_suite_oracle_rejects_a_failed_check(tmp_path):
    text = _cli(tmp_path, "check", "gates")
    oracles.check_suite_text(text, "gates", workloads.SUITE_CHECKS["gates"])
    with pytest.raises(OracleError):
        oracles.check_suite_text(text.replace("[ok ]", "[FAIL]", 1), "gates", 7)


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in range(11, 400):
        values = list(range(n))
        rank = values.index(worker.nearest_rank(values, worker.tail_percentile(n))) + 1
        assert n - rank >= 10


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names() + [
        "trace.jobs_per_s", "trace.overhead_ratio"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_records_spans_and_restores_every_name(tmp_path):
    tracer = tracing.Tracer()
    original = cli.main
    tracer.install()
    try:
        assert cli.main is not original
        _cli(tmp_path, "run", "--step", "bell", "--input", "([1,0,1],0)")
    finally:
        tracer.uninstall()
    assert cli.main is original
    t = tracer.per_pass(1)
    assert t["cli.main.calls"] == 1 and t["cli.main.errors"] == 0
    support = len(oracles.fold_state("bell", ("1", "0", "1"), "0"))
    assert t["quanta.run_quanta.calls"] == 1 and t["quanta.run_quanta.support"] == support
    assert t["vecmonad.AmpVec.calls"] > 0 and t["gates.default_library.calls"] == 1
    assert 0 < t["cli.main.self_s"] < t["cli.main.s"]
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "quanta.run_quanta", "vecmonad.format_state", "quanta.ListBasis"} <= names
    parents = [s[3] for s in tracer.spans if s[0] == "quanta.run_quanta"]
    assert tracer.spans[parents[0]][0] == "cli.main"


# Sizes that keep the smoke run to a few seconds.
_HEAVY = re.compile(r"check-(relalg|vecmonad)|-n(8|9|1\d)\b|-k[678]|perm\d-q6|-q(7|8|9|10)\b|-m[34]")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_of_each_workload_has_no_failure(tmp_path, name):
    jobs = [j for j in workloads.build(name, 11, ROOT, tmp_path) if not _HEAVY.search(j.id)]
    assert len(jobs) >= 5
    loop = worker.run_passes(jobs, passes=1)
    checked = worker.verify(jobs, loop)
    summary = worker.summarize(jobs, loop, checked)
    assert summary["failures"] == [] and summary["fail_ratio"] == 0
    assert summary["attempted"] == len(jobs)
