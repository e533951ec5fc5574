"""References for ``quantakit.cli``: earlier routes of its commands, each
kept verbatim apart from its name, for tests to compare the current
output with."""
import argparse
import json

from quantakit import relalg, vecmonad


# ---------------------------------------------------------------------------
# Reference: the per-cell printer that ``matrix --format json`` replaced.
# No golden prints a matrix as JSON, so only the tests against it kill the
# mutants of ``cli``: cells told apart by value, not bits (0.0 and -0.0
# then share a text), an imaginary part printed without its sign, and no
# newline after the JSON.

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
