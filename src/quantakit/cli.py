"""Command-line front end for the pipeline.

Subcommands materialize fold matrices, run single states, search minimal
complements from truth-table files, synthesize/export circuits, simulate
QASM files, and run the invariant suites.  Outputs are deterministic;
labels printed by one command parse back as inputs to another.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import checks, circuitgen, gates, quanta, relalg, vecmonad

MAXLEN_CAP = 4
DIM_CAP = 62


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _step_op(name: str, tol: float) -> tuple[vecmonad.KleisliOp, relalg.FinBasis, relalg.FinBasis]:
    lib = gates.default_library()
    if name not in lib:
        raise KeyError(f"unknown gate {name!r} (have: {', '.join(lib.names())})")
    op = lib.op(name)
    try:
        item, payload = quanta.step_shape(op)
    except ValueError:
        raise ValueError(
            f"gate {name!r} does not act on an (item,payload) pair basis"
        ) from None
    if not vecmonad.is_unitary(vecmonad.materialize(op, op.src), tol):
        raise ValueError(f"gate {name!r} is not unitary at tolerance {tol}")
    return op, item, payload


def _fold_matrix(step_name: str, maxlen: int, tol: float) -> vecmonad.CMatrix:
    op, item, payload = _step_op(step_name, tol)
    lb = quanta.ListBasis(maxlen, item, payload)
    if len(lb.basis) > DIM_CAP:
        raise relalg.SizeLimitError(
            f"matrix dimension {len(lb.basis)} exceeds cap {DIM_CAP}"
        )
    fold = quanta.quantamorphism(op, maxlen, validate=False)
    return vecmonad.materialize(fold, lb.basis)


def _matrix_json(m: vecmonad.CMatrix) -> str:
    return json.dumps(
        {
            "columns": list(m.src.labels),
            "rows": list(m.tgt.labels),
            "entries": [[[z.real, z.imag] for z in row] for row in m.entries.tolist()],
        }
    )


def cmd_matrix(args: argparse.Namespace) -> int:
    if args.maxlen > MAXLEN_CAP:
        return _fail(f"maxlen {args.maxlen} exceeds cap {MAXLEN_CAP}")
    try:
        m = _fold_matrix(args.step, args.maxlen, args.tol)
    except (KeyError, ValueError) as exc:
        return _fail(str(exc))
    text = _matrix_json(m) + "\n" if args.format == "json" else vecmonad.format_matrix(m)
    _write(text, args.out)
    return 0


def _check_in(label: str, basis: relalg.FinBasis, role: str, step: str) -> None:
    if label not in basis:
        raise ValueError(
            f"{role} {label!r} is not in the {role} basis of step {step!r}"
            f" (have: {', '.join(basis)})"
        )


def cmd_run(args: argparse.Namespace) -> int:
    try:
        op, item, payload = _step_op(args.step, args.tol)
        lst, b = relalg.split_pair(args.input)
        items = relalg.split_list(lst)
        for x in items:
            _check_in(x, item, "item", args.step)
        _check_in(b, payload, "payload", args.step)
        state = quanta.run_quanta(op, args.input)
    except (KeyError, ValueError) as exc:
        return _fail(str(exc))
    order = quanta.ListBasis(len(items), item, payload).basis
    if args.format == "json":
        payload_obj = {
            lbl: [state[lbl].real, state[lbl].imag]
            for lbl in order
            if abs(state[lbl]) >= vecmonad.PRUNE_EPS
        }
        _write(json.dumps(payload_obj) + "\n", args.out)
    else:
        _write(vecmonad.format_state(state, order), args.out)
    return 0


def cmd_complement(args: argparse.Namespace) -> int:
    try:
        rel = relalg.parse_truth_table(Path(args.table).read_text())
        comps = relalg.minimal_complements(rel)
    except (OSError, ValueError, relalg.SizeLimitError) as exc:
        return _fail(str(exc))
    if args.format == "json":
        doc = [
            {
                "blocks": [list(b) for b in relalg.partition_blocks(q)],
                "quotient": {x: y for y, x in sorted(q.pairs(), key=lambda p: q.src.index(p[1]))},
            }
            for q in comps
        ]
        _write(json.dumps(doc, indent=2) + "\n", args.out)
        return 0
    lines = [f"{len(comps)} minimal complement(s)"]
    for k, q in enumerate(comps, start=1):
        blocks = " ".join("{" + ",".join(b) + "}" for b in relalg.partition_blocks(q))
        lines.append(f"complement {k}: blocks {blocks}")
        for y, x in sorted(q.pairs(), key=lambda p: q.src.index(p[1])):
            lines.append(f"  {x} -> {y}")
        if args.matrices:
            lines.append("  partition matrix:")
            for row in relalg.format_bool_matrix(relalg.kernel(q), labels=args.labels).splitlines():
                lines.append(f"    {row}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    try:
        if args.matrix_file is not None:
            m = vecmonad.parse_matrix(Path(args.matrix_file).read_text())
        elif args.step is not None:
            if args.maxlen == "pinned16":
                basis = quanta.pinned16_basis()
                op, _, _ = _step_op(args.step, args.tol)
                fold = quanta.quantamorphism_over(op, basis, validate=False)
                m = vecmonad.materialize(fold, basis)
            else:
                m = _fold_matrix(args.step, int(args.maxlen), args.tol)
        else:
            return _fail("synth needs --step or --matrix-file")
        enc = circuitgen.Encoding(m.src)
        circ = circuitgen.synth_permutation(m, enc)
    except (OSError, KeyError, ValueError, circuitgen.NonPermutationError) as exc:
        return _fail(str(exc))
    qasm = circuitgen.export_qasm(circ)
    if args.qasm is not None:
        _write(qasm, args.qasm)
    stats = circuitgen.metrics(circ)
    _write(stats.to_json() + "\n", args.out)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        circ = circuitgen.parse_qasm(Path(args.qasm_file).read_text())
        out_bits = circuitgen.simulate(circ, args.input)
    except (OSError, ValueError, circuitgen.AncillaError) as exc:
        return _fail(str(exc))
    _write(out_bits + "\n", args.out)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    names = list(checks.SUITES) if args.suite == "all" else [args.suite]
    unknown = [n for n in names if n not in checks.SUITES]
    if unknown:
        return _fail(f"unknown suite {unknown[0]!r} (have: all, {', '.join(checks.SUITES)})")
    results = checks.run_suites(names)
    by_suite: dict[str, list[checks.CheckResult]] = {}
    for r in results:
        by_suite.setdefault(r.suite, []).append(r)
    failed = [r for r in results if not r.ok]
    if args.format == "json":
        doc = {
            suite: {
                "passed": sum(r.ok for r in rs),
                "total": len(rs),
                "failures": [r.name for r in rs if not r.ok],
            }
            for suite, rs in by_suite.items()
        }
        _write(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = []
        for suite, rs in by_suite.items():
            lines.append(f"{suite}: {sum(r.ok for r in rs)}/{len(rs)} checks passed")
            for r in rs:
                mark = "ok " if r.ok else "FAIL"
                lines.append(f"  [{mark}] {r.name}" + (f" -- {r.detail}" if r.detail else ""))
        _write("\n".join(lines) + "\n", args.out)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="quantakit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--tol", type=float, default=1e-9)

    sp = sub.add_parser("matrix", help="materialize the fold of a gate over a truncated list basis")
    sp.add_argument("--step", required=True)
    sp.add_argument("--maxlen", type=int, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_matrix)

    sp = sub.add_parser("run", help="apply the fold of a gate to one basis state")
    sp.add_argument("--step", required=True)
    sp.add_argument("--input", required=True, help='state label, e.g. "([1,0,0],1)"')
    common(sp)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("complement", help="minimal complements of a truth-table function")
    sp.add_argument("table", help="truth-table file, one 'input -> output' line per label")
    sp.add_argument("--matrices", action="store_true", help="print partition matrices")
    sp.add_argument("--labels", action="store_true", help="label matrix rows")
    common(sp)
    sp.set_defaults(fn=cmd_complement)

    sp = sub.add_parser("synth", help="compile a permutation matrix to a circuit")
    sp.add_argument("--step", default=None)
    sp.add_argument("--maxlen", default=None, help="integer, or 'pinned16' for the 16-state basis")
    sp.add_argument("--matrix-file", default=None, help="matrix dump to compile instead of a gate")
    sp.add_argument("--qasm", default=None, help="write OpenQASM 2.0 here ('-' for stdout)")
    common(sp)
    sp.set_defaults(fn=cmd_synth)

    sp = sub.add_parser("simulate", help="run a QASM file on a computational-basis input")
    sp.add_argument("qasm_file")
    sp.add_argument("input", help="bit-string over the data qubits")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("check", help="run invariant suites")
    sp.add_argument("suite", nargs="?", default="all")
    common(sp)
    sp.set_defaults(fn=cmd_check)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "matrix" and args.maxlen < 0:
        return _fail("maxlen must be non-negative")
    if getattr(args, "tol", 1.0) <= 0:
        return _fail("tolerance must be positive")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
