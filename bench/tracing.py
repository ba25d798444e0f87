"""Span tracing of the program's public functions, installed from outside.

The package imports names by value (``from .forms import kn_product`` in
several modules), so a wrapper is rebound in every ``doubleforms`` module
that holds the original object.  Each call records a span (name, start,
end, parent) in flat arrays; self time is a span's duration minus the
durations of its direct children.  The ``exterior`` helpers are not
wrapped: they run millions of times and their cost lands in their callers'
self time.

Run as a script, this is the traced counterpart of the ``doubleforms``
command:

    python3 bench/tracing.py SUMMARY.json <doubleforms arguments...>

It installs the wrappers, calls ``doubleforms.cli.main`` and writes the
per-function summary, the table-cache statistics and the suite's
per-identity timings to SUMMARY.json.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from math import comb

import numpy as np

#: Public functions wrapped, by module.
TRACED = {
    "weitzenboeck": ("np_definition", "np_formula", "p_curvature_form", "decompose_22",
                     "spectrum", "jacobi_eigenvalues"),
    "clifford": ("clifford_mul", "ad"),
    "forms": ("kn_product", "contract", "star", "bianchi_residual", "sectional"),
    "tensorio": ("load_tensor", "bianchi_projector", "project_bianchi"),
    "random_tensors": ("random_bianchi_22",),
}

_F8 = 8  # bytes per float64 / int64 entry

#: lru_cache tables and the bytes one build holds, computed from its arguments.
TABLES = {
    ("weitzenboeck", "_ad_table"): lambda n, p: comb(n, p) * comb(n, 2) * 2 ** n * _F8,
    ("forms", "_split_tensor"): lambda n, p1, p2: comb(n, p1 + p2) * comb(n, p1) * comb(n, p2) * _F8,
    ("forms", "_lift_table"): lambda n, k: comb(n, k) * n * 2 * _F8,
    ("forms", "_complement_table"): lambda n, d: comb(n, d) * 2 * _F8,
    ("tensorio", "bianchi_projector"): lambda n: comb(n, 2) ** 4 * _F8,
}

ROOT = "cli.main"


class Tracer:
    """Spans kept in memory as flat arrays, summarised on demand."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def wrap(self, label: str, fn):
        """fn, recording one span under label per call."""
        nid = len(self.labels)
        self.labels.append(label)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict[str, dict]:
        """label -> {calls, s (inclusive), self_s} over all finished spans."""
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int_)
        name = np.frombuffer(self.name, dtype=np.int_)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.labels)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        return {
            label: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, label in enumerate(self.labels)
        }


def rebind(original, replacement) -> None:
    """Replace every module-level reference to original in the package."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "doubleforms" or mod_name.startswith("doubleforms.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _count_builds(cached, size_of, built: list):
    """Pass-through to an lru_cache function that records each miss's size."""
    def probe(*args):
        before = cached.cache_info().misses
        result = cached(*args)
        if cached.cache_info().misses > before:
            built.append(size_of(*args))
        return result
    return probe


def install(tracer: Tracer) -> dict:
    """Wrap TRACED and TABLES throughout the imported package.

    Returns the table probes' state: label -> (lru_cache function, sizes of
    the builds seen so far).
    """
    import importlib

    # cli and verify hold wrapped names too, so load them before rebinding
    modules = {name: importlib.import_module(f"doubleforms.{name}")
               for name in {*TRACED, *(mod for mod, _ in TABLES), "cli", "verify"}}
    tables = {}
    for (mod, fn_name), size_of in TABLES.items():
        cached = getattr(modules[mod], fn_name)
        built: list[int] = []
        tables[f"{mod}.{fn_name}"] = (cached, built)
        rebind(cached, _count_builds(cached, size_of, built))
    for mod, names in TRACED.items():
        for fn_name in names:
            fn = getattr(modules[mod], fn_name)
            rebind(fn, tracer.wrap(f"{mod}.{fn_name}", fn))
    return tables


def table_stats(tables: dict) -> dict[str, dict]:
    out = {}
    for label, (cached, built) in tables.items():
        info = cached.cache_info()
        out[label] = {"builds": info.misses, "hits": info.hits, "built_bytes": sum(built)}
    return out


def traced_main(summary_path: str, argv: list[str]) -> int:
    """Run the command line under tracing and write its summary."""
    import doubleforms.cli as cli
    import doubleforms.verify as verify

    tracer = Tracer()
    tables = install(tracer)
    timings: dict[str, float] = {}
    run_suite = verify.run_suite

    def run_suite_keeping_timings(*args, **kwargs):
        report = run_suite(*args, **kwargs)
        timings.update(report.timings)
        return report

    rebind(run_suite, run_suite_keeping_timings)
    main = tracer.wrap(ROOT, cli.main)
    try:
        return main(argv)
    finally:
        with open(summary_path, "w") as fh:
            json.dump({"functions": tracer.summary(), "tables": table_stats(tables),
                       "verify": timings, "spans": len(tracer.start)}, fh)


if __name__ == "__main__":
    sys.exit(traced_main(sys.argv[1], sys.argv[2:]))
