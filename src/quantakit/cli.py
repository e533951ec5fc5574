"""Command-line front end for the pipeline.

Subcommands materialize fold matrices, run single states, search minimal
complements from truth-table files, synthesize/export circuits, simulate
QASM files, and run the invariant suites.  Outputs are deterministic;
labels printed by one command parse back as inputs to another.

Only ``synth``, ``simulate`` and ``check`` of the ``circuitgen`` suite
import ``circuitgen``, and only ``check`` imports ``checks``: ``run``,
``matrix`` and ``complement`` start without compiling either module.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from . import gates, quanta, relalg, vecmonad

MAXLEN_CAP = 4
DIM_CAP = 62
OVERWRITE_NOTE = "; an existing file is overwritten in place, keeping its inode and mode"
CHUNK_LINES = 8192


def _write(chunks: Iterable[str], out: str | None) -> None:
    """Print the text ``chunks`` in order, or write them to the path ``out`` in place.

    Truncating to zero first, as ``Path.write_text`` does, makes ext4 flush
    the file's blocks on close (its replace-via-truncate heuristic): 50-65 ms
    per overwrite on an ext4 root mounted with ``discard``, against under
    0.02 ms for this write.  So the file is cut only after the write, to the
    written length.  It keeps its inode, links and mode; a new file gets the
    mode ``write_text`` would give it.
    """
    if out is None or out == "-":
        sys.stdout.writelines(chunks)
        return
    fd = os.open(Path(out), os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        f = open(fd, "w")
    except BaseException:
        os.close(fd)
        raise
    with f:
        f.writelines(chunks)
        if stat.S_ISREG(os.fstat(fd).st_mode):  # /dev/null, FIFOs and terminals cannot be cut
            f.truncate()


def _chunks(groups: Iterable[list[str]]) -> Iterator[str]:
    """The lines of ``groups`` in order, each ended by a newline, joined
    ``CHUNK_LINES`` lines to a chunk; the last chunk takes what is left."""
    buf: list[str] = []
    for group in groups:
        buf += group
        while len(buf) >= CHUNK_LINES:
            yield "\n".join(buf[:CHUNK_LINES] + [""])
            del buf[:CHUNK_LINES]
    yield "\n".join(buf + [""])


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _gate_step(name: str, tol: float) -> quanta.Step:
    """The library's fold step for ``name``, refused unless its matrix is
    unitary at ``tol``, by the gap the library measured when it was built."""
    lib = gates.default_library()
    step = lib.step(name)
    if not lib.unitarity_gap(name) <= tol:
        raise ValueError(f"gate {name!r} is not unitary at tolerance {tol}")
    return step


def _fold_matrix(step_name: str, maxlen: int, tol: float) -> vecmonad.CMatrix:
    if maxlen > MAXLEN_CAP:
        raise relalg.SizeLimitError(f"maxlen {maxlen} exceeds cap {MAXLEN_CAP}")
    step = _gate_step(step_name, tol)
    dim = len(quanta.ListBasis(maxlen, step.item, step.payload))
    if dim > DIM_CAP:
        raise relalg.SizeLimitError(f"matrix dimension {dim} exceeds cap {DIM_CAP}")
    return quanta.fold_matrix(step, maxlen)


def _matrix_json(m: vecmonad.CMatrix) -> str:
    """The fold as JSON: column and row labels, and each cell as ``[re, im]``.

    A fold matrix repeats few distinct cells, so each distinct 16-byte cell
    is dumped once: cells are told apart by their bits, not their values,
    so that ``-0.0`` and each NaN keep their own text.  The texts are joined
    with ``json.dumps``' default separators."""
    e = np.ascontiguousarray(m.entries)
    cells, at = np.unique(e.view("V16").ravel(), return_inverse=True)
    text = np.array([json.dumps([z.real, z.imag]) for z in cells.view(np.complex128).tolist()], dtype=object)
    rows = ", ".join(["[" + ", ".join(row) + "]" for row in text[at.reshape(e.shape)].tolist()])
    return f'{{"columns": {json.dumps(m.src.labels)}, "rows": {json.dumps(m.tgt.labels)}, "entries": [{rows}]}}'


def cmd_matrix(args: argparse.Namespace) -> int:
    m = _fold_matrix(args.step, args.maxlen, args.tol)
    text = _matrix_json(m) + "\n" if args.format == "json" else vecmonad.format_matrix(m)
    _write([text], args.out)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    state = quanta.run_quanta(_gate_step(args.step, args.tol), args.input)
    if args.format == "json":
        _write([json.dumps({lbl: [a.real, a.imag] for lbl, a in state.items()}) + "\n"], args.out)
    else:
        _write([vecmonad.format_state(state)], args.out)
    return 0


def cmd_complement(args: argparse.Namespace) -> int:
    if args.format == "json" and (args.matrices or args.labels):
        return _fail(f"{'--matrices' if args.matrices else '--labels'} does not apply to --format json")
    if args.labels and not args.matrices:
        return _fail("--labels needs --matrices")
    rel = relalg.parse_truth_table(Path(args.table).read_text())
    comps = relalg.minimal_complements(rel)
    # minimal_complements expands each pattern of block class-sets into
    # sorted index partitions, up to 78,125 of them at the domain cap, and
    # most blocks recur across many of them.  So each distinct block's texts
    # are built once: its header (in JSON, its list's lines) and one line
    # per member, for the member's slot after slot 0, which holds the line
    # before them.  A partition matrix row is 1 exactly at the row's
    # block-mates (the kernel of a quotient is the same-block relation), so
    # its rows are member lines too, in the slots after the quotient lines.
    # A complement joins its blocks' headers in block order and its lines
    # from the slots, and the report goes out CHUNK_LINES lines at a time.
    names = rel.src.labels
    n = len(names)
    blocks = set().union(*comps)
    slots = [""] * (n + 1)
    if args.format == "json":
        enc = list(map(json.dumps, names))  # each label escaped once, with json.dumps' ensure_ascii escapes
        comma = [","] * (n - 1) + [""]  # after every quotient line but the last element's
        pieces = {b: (["      ["] + [f"        {enc[i]}," for i in b[:-1]] + [f"        {enc[b[-1]]}", "      ],"],
                      [(1 + i, f"      {enc[i]}: {enc[b[0]]}{comma[i]}") for i in b]) for b in blocks}
        slots[0] = '    "quotient": {'
    else:
        pieces = {b: ("{" + ",".join([names[i] for i in b]) + "}",
                      [(1 + i, f"  {names[i]} -> {names[b[0]]}") for i in b]) for b in blocks}
    if args.matrices:
        slots += ["  partition matrix:"] + [""] * n
        prefix = [f"    {x}: " if args.labels else "    " for x in names]
        for b, (_, members) in pieces.items():
            cells = ["0"] * n
            for i in b:
                cells[i] = "1"
            row = " ".join(cells)
            members += [(n + 2 + i, prefix[i] + row) for i in b]

    def filled():
        """Each complement's block headers, with its lines put in ``slots``."""
        for p in comps:
            heads = []
            for b in p:
                head, members = pieces[b]
                heads.append(head)
                for i, line in members:
                    slots[i] = line
            yield heads

    def report() -> Iterator[list[str]]:
        """The report's lines, a few lists of them per complement."""
        if args.format == "json":
            yield ["["]
            for k, heads in enumerate(filled(), start=1):
                lines = ["  {", '    "blocks": [']
                for head in heads:
                    lines += head
                lines[-1] = "      ]"  # no comma after the last block
                lines += ["    ],", *slots, "    }", "  }," if k < len(comps) else "  }"]
                yield lines
            yield ["]"]
        else:
            yield [f"{len(comps)} minimal complement(s)"]
            for k, heads in enumerate(filled(), start=1):
                slots[0] = f"complement {k}: blocks {' '.join(heads)}"
                yield slots

    _write(_chunks(report()), args.out)
    return 0


def _synth_circuit(args: argparse.Namespace) -> circuitgen.Circuit:
    """The circuit ``synth`` compiles.  ``--step S --maxlen N`` has one
    route: at N = 0 the empty circuit on the payload qubits; above it, the
    fold of a step with ``Step.rows`` (``id``, ``cnot`` and ``ccnot``),
    compiled slot by slot by ``synth_fold`` with no fold matrix built, up to
    its cap of ``MAX_QASM_QUBITS`` data qubits.  Any other step's slots need
    controlled gates, which are not compiled yet.  A matrix dump and the
    pinned16 fold are compiled as permutation matrices."""
    from . import circuitgen

    if args.matrix_file is not None:
        return circuitgen.synth_permutation(vecmonad.parse_matrix(Path(args.matrix_file).read_text()), args.tol)
    if args.step is None:
        raise ValueError("synth needs --step or --matrix-file")
    if args.maxlen != "pinned16":
        if args.maxlen is None or not args.maxlen.isdecimal():
            raise ValueError(f"synth --step needs --maxlen, a non-negative integer or 'pinned16' (got {args.maxlen!r})")
        maxlen, step = int(args.maxlen), _gate_step(args.step, args.tol)
        if maxlen == 0:
            return circuitgen.Circuit(circuitgen.Encoding(step.payload).width, 0, ())
        if step.rows is None:
            raise ValueError(f"step {args.step!r} is not classical: its slots need controlled gates (not compiled yet)")
        return circuitgen.synth_fold(step.u, circuitgen.ListEncoding(maxlen, step.item, step.payload), args.tol)
    step = _gate_step(args.step, args.tol)
    if step.item != relalg.BIT or step.payload != relalg.BIT:
        raise ValueError(f"pinned16 needs a step on (bit,bit) pairs; step {args.step!r} has items"
                         f" {', '.join(step.item)} and payloads {', '.join(step.payload)}")
    basis = quanta.pinned16_basis()
    fold = quanta.fold_matrix(step, 3)
    keep = [fold.src.index(x) for x in basis]
    leaks = [i for j in keep for i in fold.entries[:, j].nonzero()[0] if i not in keep]
    if leaks:
        raise ValueError(f"the fold of step {args.step!r} leaves the pinned16 basis:"
                         f" output label {fold.tgt.labels[leaks[0]]!r} outside target basis")
    return circuitgen.synth_permutation(vecmonad.CMatrix(basis, basis, fold.entries[keep][:, keep]), args.tol)


def cmd_synth(args: argparse.Namespace) -> int:
    from . import circuitgen

    circ = _synth_circuit(args)
    if args.qasm is not None:
        _write([circuitgen.export_qasm(circ)], args.qasm)
    _write([circuitgen.metrics(circ).to_json() + "\n"], args.out)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import circuitgen

    circ = circuitgen.parse_qasm(Path(args.qasm_file).read_text())
    _write([circuitgen.simulate(circ, args.input) + "\n"], args.out)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from . import checks

    names = list(checks.SUITES) if args.suite == "all" else [args.suite]
    unknown = [n for n in names if n not in checks.SUITES]
    if unknown:
        return _fail(f"unknown suite {unknown[0]!r} (have: all, {', '.join(checks.SUITES)})")
    by_suite = {n: checks.SUITES[n]() for n in names}
    if args.format == "json":
        doc = {}
        for suite, rs in by_suite.items():
            doc[suite] = {
                "passed": sum(r.ok for r in rs),
                "total": len(rs),
                "failures": [r.name for r in rs if not r.ok],
            }
            details = {r.name: r.detail for r in rs if r.detail}  # only failures carry one
            if details:
                doc[suite]["details"] = details
        _write([json.dumps(doc, indent=2) + "\n"], args.out)
    else:
        lines = []
        for suite, rs in by_suite.items():
            lines.append(f"{suite}: {sum(r.ok for r in rs)}/{len(rs)} checks passed")
            for r in rs:
                mark = "ok " if r.ok else "FAIL"
                lines.append(f"  [{mark}] {r.name}" + (f" -- {r.detail}" if r.detail else ""))
        _write(["\n".join(lines) + "\n"], args.out)
    return 0 if all(r.ok for rs in by_suite.values() for r in rs) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    p = argparse.ArgumentParser(prog="quantakit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser, *names: str) -> None:
        """--out, and those of --format and --tol that the command reads."""
        sp.add_argument("--out", default=None, help=f"output path (default stdout){OVERWRITE_NOTE}")
        if "format" in names:
            sp.add_argument("--format", choices=("text", "json"), default="text")
        if "tol" in names:
            sp.add_argument("--tol", type=float, default=vecmonad.DEFAULT_TOL)

    sp = sub.add_parser("matrix", help="materialize the fold of a gate over a truncated list basis")
    sp.add_argument("--step", required=True)
    sp.add_argument("--maxlen", type=int, required=True)
    common(sp, "format", "tol")
    sp.set_defaults(fn=cmd_matrix)

    sp = sub.add_parser("run", help="apply the fold of a gate to one basis state")
    sp.add_argument("--step", required=True)
    sp.add_argument("--input", required=True, help='state label, e.g. "([1,0,0],1)"')
    common(sp, "format", "tol")
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("complement", help="minimal complements of a truth-table function")
    sp.add_argument("table", help="truth-table file, one 'input -> output' line per label")
    sp.add_argument("--matrices", action="store_true", help="print partition matrices")
    sp.add_argument("--labels", action="store_true", help="label matrix rows")
    common(sp, "format")
    sp.set_defaults(fn=cmd_complement)

    sp = sub.add_parser("synth", help="compile the fold of a classical gate, or a permutation matrix, to a circuit")
    sp.add_argument("--step", default=None)
    sp.add_argument("--maxlen", default=None, help="integer, compiled slot by slot up to a data register of"
                    " 2^16 qubits; or 'pinned16' for the 16-state basis")
    sp.add_argument("--matrix-file", default=None, help="matrix dump to compile instead of a gate")
    sp.add_argument("--qasm", default=None, help=f"write OpenQASM 2.0 here ('-' for stdout){OVERWRITE_NOTE}")
    common(sp, "tol")
    sp.set_defaults(fn=cmd_synth)

    sp = sub.add_parser("simulate", help="run a QASM file on a computational-basis input")
    sp.add_argument("qasm_file")
    sp.add_argument("input", help="bit-string over the data qubits")
    common(sp)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("check", help="run invariant suites")
    sp.add_argument("suite", nargs="?", default="all")
    common(sp, "format")
    sp.set_defaults(fn=cmd_check)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not 0 < getattr(args, "tol", 1.0) < math.inf:
        return _fail("tolerance must be positive and finite")
    for option in ("out", "qasm"):
        if getattr(args, option, None) == "":  # pathlib would read it as the directory "."
            return _fail(f"empty output path for --{option}")
    try:
        return args.fn(args)
    except KeyError as exc:  # its str() is the repr of its one argument
        return _fail(exc.args[0] if len(exc.args) == 1 and isinstance(exc.args[0], str) else str(exc))
    except (OSError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
