"""Reference checks for every job output the benchmark produces.

Nothing here imports ``quantakit``: each expected value is computed from
first principles (hand-written gate matrices, a bitmask circuit evaluator,
a dense statevector and a brute-force partition search) so that a defect in
the program under test cannot also hide in its own check.  Every ``check_*``
function raises ``OracleError`` on a wrong output and returns quietly, or
with the counts it measured, on a right one.
"""
from __future__ import annotations

import json
import re
from functools import lru_cache

import numpy as np

TOL = 1e-9


class OracleError(AssertionError):
    """An output disagrees with its reference."""


def _fail(msg: str) -> None:
    raise OracleError(msg)


# ---------------------------------------------------------------------------
# Step unitaries, written out from H, X and CNOT

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
_P0 = np.diag([1, 0]).astype(complex)
_P1 = np.diag([0, 1]).astype(complex)
_T = np.diag([1, np.exp(1j * np.pi / 4)])

CNOT = np.kron(_P0, _I2) + np.kron(_P1, _X)
BELL = CNOT @ np.kron(_H, _I2)
UNBELL = np.kron(_H, _I2) @ CNOT
ALICE = np.kron(UNBELL, _I2) @ np.kron(_I2, BELL)
COND = (np.kron(_P0, _H) + np.kron(_P1, _X)) @ np.kron(_H, _I2)
CCNOT = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]]

_BITS = ("0", "1")
_PAIRS = ("(0,0)", "(0,1)", "(1,0)", "(1,1)")

# name -> (unitary on the (item, payload) basis, item labels, payload labels);
# the item index varies slowest, as in a row-major pair basis.
STEPS: dict[str, tuple[np.ndarray, tuple[str, ...], tuple[str, ...]]] = {
    "id": (np.eye(4, dtype=complex), _BITS, _BITS),
    "cnot": (CNOT, _BITS, _BITS),
    "ccnot": (CCNOT, _PAIRS, _BITS),
    "bell": (BELL, _BITS, _BITS),
    "unbell": (UNBELL, _BITS, _BITS),
    "cond": (COND, _BITS, _BITS),
    "alice": (ALICE, _BITS, _PAIRS),
}


def state_label(items: tuple[str, ...], payload: str) -> str:
    return "([" + ",".join(items) + "]," + payload + ")"


def fold_state(step: str, items: tuple[str, ...], payload: str) -> dict[str, complex]:
    """The fold of ``step`` over one list: the step acts on (slot, payload)
    for the last slot first and the first slot last."""
    u, item_labels, payload_labels = STEPS[step]
    a, b, n = len(item_labels), len(payload_labels), len(items)
    psi = np.zeros((a,) * n + (b,), dtype=complex)
    psi[tuple(item_labels.index(x) for x in items) + (payload_labels.index(payload),)] = 1.0
    u4 = u.reshape(a, b, a, b)
    for slot in reversed(range(n)):
        psi = np.tensordot(u4, psi, axes=([2, 3], [slot, n]))
        psi = np.moveaxis(psi, [0, 1], [slot, n])
    out = {}
    for idx in zip(*np.nonzero(np.abs(psi) > TOL)):
        label = state_label(tuple(item_labels[i] for i in idx[:-1]), payload_labels[idx[-1]])
        out[label] = complex(psi[idx])
    return out


def list_basis(step: str, maxlen: int) -> list[tuple[tuple[str, ...], str]]:
    """(list, payload) states in cons-preorder: a list, then every list made
    by prepending one item to it, items in order, payload varying fastest."""
    _, item_labels, payload_labels = STEPS[step]
    lists: list[tuple[str, ...]] = []

    def walk(t: tuple[str, ...]) -> None:
        lists.append(t)
        if len(t) < maxlen:
            for x in item_labels:
                walk((x,) + t)

    walk(())
    return [(t, p) for t in lists for p in payload_labels]


def order_key(step: str):
    """Sort key placing same-length states in cons-preorder."""
    _, item_labels, payload_labels = STEPS[step]
    rank = {x: i for i, x in enumerate(item_labels)}
    prank = {p: i for i, p in enumerate(payload_labels)}

    def key(label: str) -> tuple:
        items, payload = parse_state_label(label)
        return tuple(rank[x] for x in reversed(items)) + (prank[payload],)

    return key


def fold_matrix(step: str, states: list[tuple[tuple[str, ...], str]]) -> tuple[list[str], np.ndarray]:
    """Fold matrix over an explicit list of states (rows and columns alike)."""
    labels = [state_label(t, p) for t, p in states]
    where = {lbl: i for i, lbl in enumerate(labels)}
    m = np.zeros((len(labels), len(labels)), dtype=complex)
    for j, (t, p) in enumerate(states):
        for lbl, amp in fold_state(step, t, p).items():
            if lbl not in where:
                _fail(f"fold of {labels[j]} leaves the basis at {lbl}")
            m[where[lbl], j] = amp
    return labels, m


# ---------------------------------------------------------------------------
# Label and amplitude syntax

def split_top(body: str) -> list[str]:
    """Split on commas outside any bracket nesting."""
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_state_label(label: str) -> tuple[tuple[str, ...], str]:
    m = re.fullmatch(r"\(\[(.*)\],(.*)\)", label)
    if m is None:
        _fail(f"not a (list,payload) label: {label!r}")
    items = tuple(split_top(m.group(1))) if m.group(1) else ()
    return items, m.group(2)


_NUM = r"[+-]?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|inf|nan)"
_AMP = re.compile(rf"({_NUM})({_NUM})i")


def parse_amp(text: str) -> complex:
    m = _AMP.fullmatch(text)
    if m is None or m.group(2)[0] not in "+-":
        _fail(f"malformed amplitude {text!r}")
    return complex(float(m.group(1)), float(m.group(2)))


# ---------------------------------------------------------------------------
# Fold outputs: `run` states and `matrix` dumps

def check_state_text(text: str, step: str, items: tuple[str, ...], payload: str) -> None:
    """`run` output: the nonzero amplitudes of the fold, in basis order."""
    expected = fold_state(step, items, payload)
    key = order_key(step)
    seen: dict[str, complex] = {}
    prev = None
    for line in text.splitlines():
        label, sep, amp = line.rpartition(": ")
        if not sep:
            _fail(f"malformed state line {line!r}")
        if label in seen:
            _fail(f"label {label} printed twice")
        k = key(label)
        if prev is not None and k <= prev:
            _fail(f"label {label} out of basis order")
        prev = k
        seen[label] = parse_amp(amp)
    for label in set(seen) | set(expected):
        got, want = seen.get(label, 0j), expected.get(label, 0j)
        if abs(got - want) > TOL:
            _fail(f"amplitude of {label}: got {got}, want {want}")


def check_matrix_text(text: str, step: str, maxlen: int) -> None:
    """`matrix` output: header of column labels, then one row per label."""
    labels, m = fold_matrix(step, list_basis(step, maxlen))
    lines = text.splitlines()
    if not lines or lines[0].split(" ") != labels:
        _fail("matrix header does not list the basis in order")
    if len(lines) != len(labels) + 1:
        _fail(f"matrix has {len(lines) - 1} rows, want {len(labels)}")
    for i, line in enumerate(lines[1:]):
        label, sep, rest = line.partition(": ")
        if not sep or label != labels[i]:
            _fail(f"row {i} is labelled {label!r}, want {labels[i]!r}")
        cells = rest.split(" ")
        if len(cells) != len(labels):
            _fail(f"row {label} has {len(cells)} cells")
        got = np.array([parse_amp(c) for c in cells])
        worst = float(np.max(np.abs(got - m[i])))
        if worst > TOL:
            _fail(f"row {label} differs from the fold by {worst:.3g}")


def check_bytes(got: bytes, want: bytes, what: str) -> None:
    if got != want:
        _fail(f"{what}: output differs from the golden bytes")


# ---------------------------------------------------------------------------
# Circuits: QASM subset, bitmask evaluation, dense statevector

_GATE = re.compile(r"(x|h|t|tdg|cx|ccx)\s+(.+);")
_REF = re.compile(r"(q|anc)\[(\d+)\]")
ARITY = {"x": 1, "h": 1, "t": 1, "tdg": 1, "cx": 2, "ccx": 3}


def parse_qasm(text: str) -> tuple[int, int, list[tuple[str, tuple[int, ...]]]]:
    """(data qubits, ancillas, gates) of the emitted OpenQASM 2.0 subset."""
    regs = {"q": None, "anc": 0}
    raw_gates = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith(("OPENQASM", "include", "//")):
            continue
        m = re.fullmatch(r"qreg\s+(q|anc)\[(\d+)\];", line)
        if m:
            regs[m.group(1)] = int(m.group(2))
            continue
        g = _GATE.fullmatch(line)
        if g is None:
            _fail(f"unexpected QASM line {line!r}")
        refs = [_REF.fullmatch(r.strip()) for r in g.group(2).split(",")]
        if any(r is None for r in refs) or len(refs) != ARITY[g.group(1)]:
            _fail(f"bad operands in {line!r}")
        raw_gates.append((g.group(1), [(r.group(1), int(r.group(2))) for r in refs]))
    n, anc = regs["q"], regs["anc"]
    if n is None:
        _fail("no data register")
    gates = []
    for name, refs in raw_gates:
        qs = tuple(i if reg == "q" else n + i for reg, i in refs)
        if any(i >= (n if reg == "q" else anc) for reg, i in refs) or len(set(qs)) != len(qs):
            _fail(f"bad qubits in {name} {refs}")
        gates.append((name, qs))
    return n, anc, gates


def eval_classical(n: int, anc: int, gates) -> np.ndarray:
    """Output basis index for every one of the 2^n inputs, ancillas starting
    at zero and required to end at zero.  Qubit 0 is the most significant."""
    x = np.arange(1 << n)
    bits = np.zeros((n + anc, 1 << n), dtype=np.uint8)
    for q in range(n):
        bits[q] = (x >> (n - 1 - q)) & 1
    for name, qs in gates:
        if name == "x":
            bits[qs[0]] ^= 1
        elif name == "cx":
            bits[qs[1]] ^= bits[qs[0]]
        elif name == "ccx":
            bits[qs[2]] ^= bits[qs[0]] & bits[qs[1]]
        else:
            _fail(f"non-classical gate {name} in a permutation circuit")
    if bits[n:].any():
        _fail("an ancilla ends dirty")
    out = np.zeros(1 << n, dtype=np.int64)
    for q in range(n):
        out |= bits[q].astype(np.int64) << (n - 1 - q)
    return out


def circuit_depth(n_total: int, gates) -> int:
    front = [0] * max(1, n_total)
    for _, qs in gates:
        level = 1 + max(front[q] for q in qs)
        for q in qs:
            front[q] = level
    return max(front) if gates else 0


def check_synth(metrics_text: str, qasm_text: str, perm) -> dict[str, int]:
    """A synthesized circuit realizes ``perm`` (input j -> perm[j]) on every
    input with clean ancillas, and its reported metrics match the QASM.
    Returns the compiler-output counts."""
    n, anc, gates = parse_qasm(qasm_text)
    if 1 << n != len(perm):
        _fail(f"circuit has {n} data qubits for {len(perm)} states")
    if not np.array_equal(eval_classical(n, anc, gates), np.asarray(perm)):
        _fail("circuit does not realize the permutation")
    try:
        reported = json.loads(metrics_text)
    except json.JSONDecodeError:
        _fail("metrics are not JSON")
    kinds = [name for name, _ in gates]
    own = {"size": len(gates), "cx": kinds.count("cx"), "depth": circuit_depth(n + anc, gates)}
    if reported != own:
        _fail(f"reported metrics {reported} differ from the circuit's {own}")
    return {
        "gates": own["size"],
        "depth": own["depth"],
        "ancillas": anc,
        "cx_cost": kinds.count("cx") + 6 * kinds.count("ccx"),
    }


@lru_cache(maxsize=4)
def _indices(n_total: int) -> np.ndarray:
    return np.arange(1 << n_total)


def dense_apply(n: int, anc: int, gates, amps: dict[str, complex]) -> dict[str, complex]:
    """Statevector over all qubits; returns data-qubit amplitudes and
    rejects amplitude left on a set ancilla."""
    total = n + anc
    psi = np.zeros(1 << total, dtype=complex)
    for label, a in amps.items():
        psi[int(label + "0" * anc, 2)] += a
    idx = _indices(total)
    one_qubit = {"x": _X, "h": _H, "t": _T, "tdg": _T.conj()}
    for name, qs in gates:
        if name in one_qubit:
            q = qs[0]
            view = psi.reshape(1 << q, 2, 1 << (total - 1 - q))
            psi = np.einsum("ij,ajb->aib", one_qubit[name], view).reshape(-1)
        else:
            fire = np.ones_like(idx, dtype=bool)
            for c in qs[:-1]:
                fire &= ((idx >> (total - 1 - c)) & 1).astype(bool)
            psi = psi[idx ^ (fire.astype(np.int64) << (total - 1 - qs[-1]))]
    grid = psi.reshape(1 << n, 1 << anc)
    if anc and np.max(np.abs(grid[:, 1:]), initial=0.0) > TOL:
        _fail("amplitude left on a dirty ancilla")
    return {
        format(i, f"0{n}b"): complex(grid[i, 0])
        for i in np.nonzero(np.abs(grid[:, 0]) > TOL)[0]
    }


def check_state_dict(got: dict[str, complex], qasm_text: str, amps: dict[str, complex]) -> None:
    """`simulate_state` output against the dense statevector."""
    n, anc, gates = parse_qasm(qasm_text)
    want = dense_apply(n, anc, gates, amps)
    for label in set(got) | set(want):
        if not re.fullmatch(f"[01]{{{n}}}", label):
            _fail(f"bad state label {label!r}")
        if abs(got.get(label, 0j) - want.get(label, 0j)) > TOL:
            _fail(f"amplitude of {label}: got {got.get(label, 0j)}, want {want.get(label, 0j)}")


def check_bits(text: str, want: str) -> None:
    if text != want + "\n":
        _fail(f"simulate printed {text!r}, want {want!r}")


# ---------------------------------------------------------------------------
# Minimal complements

def maximal_partitions(classes: list[int]) -> list[tuple[tuple[int, ...], ...]]:
    """Every partition of range(len(classes)) whose blocks hold at most one
    element per class and whose blocks pairwise share a class, so that no
    two can merge; sorted by their sorted-block signature."""
    n = len(classes)
    found = []
    blocks: list[list[int]] = []

    def walk(i: int) -> None:
        if i == n:
            sets = [{classes[x] for x in b} for b in blocks]
            if all(sets[p] & sets[q] for p in range(len(sets)) for q in range(p)):
                found.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            if all(classes[x] != classes[i] for x in b):
                b.append(i)
                walk(i + 1)
                b.pop()
        blocks.append([i])
        walk(i + 1)
        blocks.pop()

    walk(0)
    return sorted(found, key=lambda p: tuple(sorted(p)))


def parse_complements(text: str) -> list[tuple[list[list[str]], dict[str, str]]]:
    lines = text.splitlines()
    m = re.fullmatch(r"(\d+) minimal complement\(s\)", lines[0] if lines else "")
    if m is None:
        _fail("missing complement count line")
    results: list[tuple[list[list[str]], dict[str, str]]] = []
    for line in lines[1:]:
        head = re.fullmatch(r"complement (\d+): blocks (.*)", line)
        if head:
            if int(head.group(1)) != len(results) + 1:
                _fail(f"complement numbered {head.group(1)} out of sequence")
            blocks = [split_top(b) for b in re.findall(r"\{([^{}]*)\}", head.group(2))]
            results.append((blocks, {}))
            continue
        arrow = re.fullmatch(r"  (.+) -> (.+)", line)
        if arrow is None or not results:
            _fail(f"unexpected complement line {line!r}")
        results[-1][1][arrow.group(1)] = arrow.group(2)
    if len(results) != int(m.group(1)):
        _fail(f"count line says {m.group(1)}, found {len(results)} complements")
    return results


def check_complements(text: str, domain: list[str], f: dict[str, str]) -> int:
    """Each result is a valid, maximal partition with its canonical quotient;
    together they are exactly the maximal partitions, in signature order.
    Returns the number of results."""
    index = {x: i for i, x in enumerate(domain)}
    outputs = sorted(set(f.values()))
    want = maximal_partitions([outputs.index(f[x]) for x in domain])
    results = parse_complements(text)
    got = []
    for k, (blocks, quotient) in enumerate(results, start=1):
        flat = [x for b in blocks for x in b]
        if len(flat) != len(domain) or set(flat) != set(domain):
            _fail(f"complement {k}: blocks do not partition the domain")
        for b in blocks:
            if len({f[x] for x in b}) != len(b):
                _fail(f"complement {k}: block {b} holds two elements of one kernel class")
        for p in range(len(blocks)):
            for q in range(p):
                if not {f[x] for x in blocks[p]} & {f[x] for x in blocks[q]}:
                    _fail(f"complement {k}: blocks {blocks[q]} and {blocks[p]} could merge")
        rep = {x: min(b, key=index.get) for b in blocks for x in b}
        if quotient != rep:
            _fail(f"complement {k}: quotient lines are not the least-member map")
        got.append(tuple(sorted(tuple(sorted(index[x] for x in b)) for b in blocks)))
    if got != [tuple(sorted(p)) for p in want]:
        _fail(f"found {len(got)} complements, want the {len(want)} maximal partitions in order")
    return len(results)


# ---------------------------------------------------------------------------
# Invariant suites

def check_suite_text(text: str, suite: str, total: int) -> None:
    lines = text.splitlines()
    if not lines or lines[0] != f"{suite}: {total}/{total} checks passed":
        _fail(f"suite {suite} header is {lines[:1]}, want all {total} passed")
    marks = [ln for ln in lines[1:] if ln.startswith("  [")]
    if len(marks) != total or any(not ln.startswith("  [ok ] ") for ln in marks):
        _fail(f"suite {suite} does not list {total} passing checks")
