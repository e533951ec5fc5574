"""References for ``quantakit.cli``: earlier routes of its commands, each
kept verbatim apart from its name, for tests to compare the current
output with."""
import argparse
import json

from quantakit import circuitgen, quanta, relalg, vecmonad
from quantakit.gates import default_library


# ---------------------------------------------------------------------------
# Reference: the per-cell printer that ``matrix --format json`` replaced.

def ref_matrix_json(m: vecmonad.CMatrix) -> str:
    return json.dumps(
        {
            "columns": list(m.src.labels),
            "rows": list(m.tgt.labels),
            "entries": [[[z.real, z.imag] for z in row] for row in m.entries.tolist()],
        }
    )


# ---------------------------------------------------------------------------
# Reference: the label-level formatting that ``complement`` replaced, kept
# verbatim: blocks and quotient maps read back from each quotient Rel.  The
# goldens print no label that JSON escapes and no ``--matrices`` report
# without ``--labels``, so only the tests against it kill two mutants of
# ``cmd_complement``: JSON labels quoted without ``json.dumps``, and the
# row prefix of ``--labels`` printed without it.

def ref_partition_blocks(quotient: relalg.Rel) -> tuple[tuple[str, ...], ...]:
    """Blocks of a quotient function, grouped by shared representative."""
    groups: dict[str, list[str]] = {}
    for out_label, in_label in quotient.pairs():
        groups.setdefault(out_label, []).append(in_label)
    blocks = [tuple(sorted(g, key=quotient.src.index)) for g in groups.values()]
    return tuple(sorted(blocks, key=lambda b: quotient.src.index(b[0])))


def ref_complement_output(comps: tuple[relalg.Rel, ...], args: argparse.Namespace) -> str:
    if args.format == "json":
        doc = [
            {
                "blocks": [list(b) for b in ref_partition_blocks(q)],
                "quotient": {x: y for y, x in sorted(q.pairs(), key=lambda p: q.src.index(p[1]))},
            }
            for q in comps
        ]
        return json.dumps(doc, indent=2) + "\n"
    lines = [f"{len(comps)} minimal complement(s)"]
    for k, q in enumerate(comps, start=1):
        blocks = " ".join("{" + ",".join(b) + "}" for b in ref_partition_blocks(q))
        lines.append(f"complement {k}: blocks {blocks}")
        for y, x in sorted(q.pairs(), key=lambda p: q.src.index(p[1])):
            lines.append(f"  {x} -> {y}")
        if args.matrices:
            lines.append("  partition matrix:")
            for row in relalg.format_bool_matrix(relalg.kernel(q), labels=args.labels).splitlines():
                lines.append(f"    {row}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reference: the pinned16 route of ``synth`` before it folded by blocks, kept
# verbatim apart from the names and the ``args`` namespace: the lazy maxlen-3
# fold re-typed over the pinned basis and materialized one label at a time.

def ref_step_op(name: str, tol: float) -> tuple[vecmonad.KleisliOp, relalg.FinBasis, relalg.FinBasis]:
    lib = default_library()
    if name not in lib:
        raise KeyError(f"unknown gate {name!r} (have: {', '.join(lib.names())})")
    op = lib.op(name)
    try:
        item, payload = quanta.step_shape(op)
    except ValueError:
        raise ValueError(
            f"gate {name!r} does not act on an (item,payload) pair basis"
        ) from None
    if not vecmonad.is_unitary(lib.matrix(name), tol):
        raise ValueError(f"gate {name!r} is not unitary at tolerance {tol}")
    return op, item, payload


def ref_pinned16_matrix(step: str, tol: float) -> vecmonad.CMatrix:
    op, item, payload = ref_step_op(step, tol)
    if item != relalg.BIT or payload != relalg.BIT:
        raise ValueError(f"pinned16 needs a step on (bit,bit) pairs; step {step!r} has items"
                         f" {', '.join(item)} and payloads {', '.join(payload)}")
    basis = quanta.pinned16_basis()
    fold = quanta.quantamorphism(op, 3)
    try:
        return vecmonad.materialize(vecmonad.KleisliOp(basis, fold.apply), basis)
    except KeyError as exc:
        raise ValueError(f"the fold of step {step!r} leaves the pinned16 basis: {exc.args[0]}") from None


def ref_synth_pinned16(step: str, qasm_out: bool, tol: float = 1e-9) -> tuple[str, str]:
    """stdout and stderr of ``synth --maxlen pinned16 --step <step>``, with
    ``--qasm -`` when ``qasm_out``."""
    try:
        m = ref_pinned16_matrix(step, tol)
        circ = circuitgen.synth_permutation(m, tol)
    except (OSError, KeyError, ValueError, circuitgen.NonPermutationError) as exc:
        # as ``main`` prints it: a KeyError's message, not the repr that str() gives
        return "", f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}\n"
    qasm = circuitgen.export_qasm(circ)
    stats = circuitgen.metrics(circ)
    return (qasm if qasm_out else "") + stats.to_json() + "\n", ""
