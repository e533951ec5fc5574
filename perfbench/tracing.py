"""Spans and counters around the public names of each `quantakit` layer.

``Tracer.install`` rebinds every listed function in each `quantakit`
module namespace (and module-level dict) that holds it, and wraps
``__init__`` of the listed classes.  A span records name, start, end,
parent span and job; its self time is its duration minus that of its
child spans.  Helpers called more than 10^4 times per job are only
counted.  Spans stay in memory until ``write_spans``.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable


def _errors(t, args, result, failed):
    if failed or result != 0:
        t["cli.main.errors"] += 1


def _adder(metric: str, size: Callable) -> Callable:
    def extra(t, args, result, failed):
        if not failed:
            t[metric] += size(args, result)
    return extra


def _support_max(t, args, result, failed):
    if not failed:
        t["circuitgen.simulate_state.support_max"] = max(
            t["circuitgen.simulate_state.support_max"], len(result))


# Spanned names, with the extra measure each one records.
SPANNED: dict[str, Callable | None] = {
    "cli.main": _errors,
    "gates.default_library": None,
    "relalg.minimal_complements": _adder("relalg.minimal_complements.results", lambda a, r: len(r)),
    "relalg.parse_truth_table": None,
    "relalg.kernel": None,
    "relalg.pair": None,
    "relalg.product_basis": None,
    "vecmonad.bind": None,
    "vecmonad.materialize": _adder(
        "vecmonad.materialize.nonzeros", lambda a, r: int((r.entries != 0).sum())),
    "vecmonad.is_unitary": None,
    "vecmonad.format_state": None,
    "vecmonad.format_matrix": None,
    "vecmonad.parse_matrix": None,
    "quanta.ListBasis": _adder("quanta.ListBasis.dim", lambda a, r: len(a[0].basis)),
    "quanta.quantamorphism": None,
    "quanta.run_quanta": _adder("quanta.run_quanta.support", lambda a, r: len(r)),
    "circuitgen.synth_permutation": None,
    "circuitgen.peephole": _adder(
        "circuitgen.peephole.removed", lambda a, r: len(a[0].gates) - len(r.gates)),
    "circuitgen.simulate": None,
    "circuitgen.simulate_state": _support_max,
    "circuitgen.export_qasm": None,
    "circuitgen.parse_qasm": None,
    **{f"checks.{s}_suite": None for s in ("relalg", "vecmonad", "gates", "quanta", "circuitgen")},
}

# Label helpers and per-gate builders: counted, no span.
COUNTED = (
    "relalg.split_pair",
    "relalg.FinBasis",
    "vecmonad.AmpVec",
    "quanta.step_shape",
    "circuitgen.decompose_mcx",
)

# Measures that are not per-pass sums.
MAXIMA = ("circuitgen.simulate_state.support_max",)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports."""
    names = []
    for name in SPANNED:
        names += [f"{name}.calls", f"{name}.s", f"{name}.self_s"]
    names += ["cli.main.errors", "relalg.minimal_complements.results",
              "vecmonad.materialize.nonzeros", "quanta.ListBasis.dim",
              "quanta.run_quanta.support", "circuitgen.peephole.removed", *MAXIMA]
    return names + [f"{name}.calls" for name in COUNTED]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.job = ""
        self._stack: list[list] = []
        self._depth: defaultdict[str, int] = defaultdict(int)
        self._undo: list[Callable[[], None]] = []

    def _spanned(self, name: str, fn: Callable, extra: Callable | None) -> Callable:
        stack, depth, totals = self._stack, self._depth, self.totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            depth[name] += 1
            failed, result = True, None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] -= 1
                dur = end - start
                self.spans[frame[0]] = (name, start, end, parent, self.job)
                totals[name + ".calls"] += 1
                totals[name + ".self_s"] += dur - frame[1]
                if depth[name] == 0:
                    totals[name + ".s"] += dur
                if stack:
                    stack[-1][1] += dur
                if extra is not None:
                    extra(totals, args, result, failed)

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        totals, key = self.totals, name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            totals[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, name: str, make: Callable[[Callable], Callable]) -> None:
        module_name, attr = name.split(".")
        orig = getattr(importlib.import_module(f"quantakit.{module_name}"), attr)
        if isinstance(orig, type):
            init = orig.__dict__["__init__"]
            setattr(orig, "__init__", make(init))
            self._undo.append(lambda: setattr(orig, "__init__", init))
            return
        wrapped = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "quantakit" and not mod_name.startswith("quantakit."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    self._undo.append(functools.partial(setattr, mod, key, orig))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is orig:
                            value[k] = wrapped
                            self._undo.append(functools.partial(value.__setitem__, k, orig))

    def install(self) -> None:
        for name, extra in SPANNED.items():
            self._patch(name, lambda fn, n=name, e=extra: self._spanned(n, fn, e))
        for name in COUNTED:
            self._patch(name, lambda fn, n=name: self._counted(n, fn))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def per_pass(self, passes: int) -> dict[str, float]:
        return {
            name: self.totals.get(name, 0.0) / (1 if name in MAXIMA else passes)
            for name in metric_names()
        }

    def write_spans(self, path: Path) -> int:
        """One JSON array per line: name, start, end, parent index, job."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        return len(self.spans)
