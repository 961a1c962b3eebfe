"""Spans and counts at tpflow's module boundaries, recorded from outside.

``Tracer.install`` replaces each target function, in every ``tpflow``
module namespace that binds it, with a wrapper that records a span (id,
name, start, end, parent) plus a few facts about the call's arguments and
result. Nothing under ``src/`` changes. A target that no longer exists is
listed in ``absent`` and its layer metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter

import numpy as np

# span name -> (module, attribute)
TARGETS = {
    "cli.main": ("tpflow.cli", "main"),
    "bench.solve_batch": ("tpflow.bench", "solve_batch"),
    "fileio.read_network": ("tpflow.fileio", "read_network"),
    "fileio.read_loads": ("tpflow.fileio", "read_loads"),
    "fileio.write_voltages": ("tpflow.fileio", "write_voltages"),
    "fileio.write_metadata": ("tpflow.fileio", "write_metadata"),
    "dense.batch_solve_dense": ("tpflow.dense", "batch_solve_dense"),
    "sparse.batch_solve_sparse": ("tpflow.sparse", "batch_solve_sparse"),
    "fpi.fpi_solve": ("tpflow.fpi", "fpi_solve"),
    "fpi.assemble_fpi": ("tpflow.fpi", "assemble_fpi"),
    "fpi.residual_per_case": ("tpflow.fpi", "residual_per_case"),
}

# per-layer metric -> unit; every one is reported on every workload
LAYER_UNITS = {
    "setup.import_s": "s",
    "cli.self_s": "s",
    "fileio.read_network_s": "s",
    "fileio.read_loads_s": "s",
    "fileio.read_loads_mb_per_s": "MB/s",
    "fileio.write_voltages_s": "s",
    "fileio.write_voltages_mb_per_s": "MB/s",
    "fileio.write_metadata_s": "s",
    "dense.solve_s": "s",
    "dense.iterations": "count",
    "dense.iteration_s": "s",
    "dense.gflop": "Gflop_computed",
    "dense.gflops": "Gflop/s",
    "dense.nonconverged_cases": "count",
    "dense.useful_column_iter_frac": "fraction",
    "fpi.residual_s": "s",
    "sparse.solve_s": "s",
    "sparse.iterations": "count",
    "sparse.factorizations": "count",
    "fpi.case_solves": "count",
    "fpi.case_ms": "ms",
    "fpi.assemble_ms": "ms",
    "trace.overhead_s": "s",
}


def _facts(args, result) -> dict:
    """Sizes the layer metrics need: file bytes, batch shape, iterations."""
    facts = {}
    if args and isinstance(args[0], (str, os.PathLike)) and os.path.isfile(args[0]):
        facts["bytes"] = os.path.getsize(args[0])
    iterations = getattr(result, "iterations", None)
    if isinstance(iterations, int):
        facts["iterations"] = iterations
    values = getattr(result, "values", None)
    if isinstance(values, np.ndarray) and values.ndim == 2:
        facts["shape"] = list(values.shape)
    mask = getattr(result, "converged_mask", None)
    if isinstance(mask, np.ndarray):
        facts["nonconverged"] = np.flatnonzero(~mask).tolist()
    return facts


class Tracer:
    """In-memory span recorder; write the spans out after the run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        self.origin = time.perf_counter()
        modules = [m for name, m in list(sys.modules.items())
                   if name == "tpflow" or name.startswith("tpflow.")]
        for span_name, (mod_name, attr) in TARGETS.items():
            try:
                fn = getattr(importlib.import_module(mod_name), attr)
            except (ImportError, AttributeError):
                self.absent.append(span_name)
                continue
            wrapper = self._wrap(span_name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, fn))

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched.clear()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span.update(_facts(args, result))
            return result
        return traced

    def relative_spans(self) -> list[dict]:
        """Spans with times in seconds from ``install``."""
        return [dict(s, start=s["start"] - self.origin, end=s["end"] - self.origin)
                for s in self.spans]

    def counts(self) -> dict:
        return dict(Counter(s["name"] for s in self.spans))


def _dur(span) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer figures for one traced pass (see README for the mapping)."""
    by_name: dict[str, list[dict]] = {}
    children: dict[int, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def total(name):
        return sum(_dur(s) for s in by_name.get(name, []))

    def descendants(span):
        out = []
        for c in children.get(span["id"], []):
            out += [c] + descendants(c)
        return out

    def rate(name):
        secs = total(name)
        mb = sum(s.get("bytes", 0) for s in by_name.get(name, [])) / 1e6
        return mb / secs if secs > 0 else 0.0

    def mean_ms(name):
        got = by_name.get(name, [])
        return 1e3 * total(name) / len(got) if got else 0.0

    m = {
        "cli.self_s": sum(
            _dur(s) - sum(_dur(c) for c in children.get(s["id"], []))
            for s in by_name.get("cli.main", [])
        ),
        "fileio.read_network_s": total("fileio.read_network"),
        "fileio.read_loads_s": total("fileio.read_loads"),
        "fileio.read_loads_mb_per_s": rate("fileio.read_loads"),
        "fileio.write_voltages_s": total("fileio.write_voltages"),
        "fileio.write_voltages_mb_per_s": rate("fileio.write_voltages"),
        "fileio.write_metadata_s": total("fileio.write_metadata"),
        "dense.solve_s": total("dense.batch_solve_dense"),
        "fpi.residual_s": total("fpi.residual_per_case"),
        "sparse.solve_s": total("sparse.batch_solve_sparse"),
        "sparse.iterations": sum(s.get("iterations", 0)
                                 for s in by_name.get("sparse.batch_solve_sparse", [])),
        "fpi.case_solves": len(by_name.get("fpi.fpi_solve", [])),
        "fpi.case_ms": mean_ms("fpi.fpi_solve"),
        "fpi.assemble_ms": mean_ms("fpi.assemble_fpi"),
    }

    # the GEMM path is a dense solve that did not fall back to per-case solves
    gemm_s = flop = 0.0
    iterations = nonconverged = 0
    for s in by_name.get("dense.batch_solve_dense", []):
        nonconverged += len(s.get("nonconverged", []))
        below = descendants(s)
        if any(d["name"] == "fpi.fpi_solve" for d in below) or "shape" not in s:
            continue
        b, tau = s["shape"]
        iterations += s.get("iterations", 0)
        gemm_s += _dur(s) - sum(_dur(d) for d in below
                                if d["name"] == "fpi.residual_per_case")
        flop += 8.0 * b * b * tau * s.get("iterations", 0)
    m["dense.iterations"] = iterations
    m["dense.iteration_s"] = gemm_s / iterations if iterations else 0.0
    m["dense.gflop"] = flop / 1e9
    m["dense.gflops"] = flop / 1e9 / gemm_s if gemm_s > 0 else 0.0
    m["dense.nonconverged_cases"] = nonconverged
    return m
