"""Span tracer for the per-module run.

Wrappers are installed, from the benchmark's side, on public upea functions
under the names their callers look them up by (the harness calls
upea.harness.sample_upea_block, counting calls upea.counting.sample_upea_block,
and so on).  Each call records a span (id, name, start, end, parent, work,
peak tracemalloc bytes above the allocation level at entry); spans stay in
memory until the run writes them out.  A name that a later version of upea
no longer has is skipped, and the metrics that depend on it read 0.

Traced calls must run on one thread: the open-span stack is not shared
between threads.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# (module the caller looks the name up in, function, argument that sizes the work)
WRAPPED = (
    ("upea", "run_sweep", None),
    ("upea", "run_verify_circuit", None),
    ("upea", "exact_mae_upea", None),
    ("upea", "calibrate_b", "n_samples"),
    ("upea.harness", "calibrate_b", "n_samples"),
    ("upea.harness", "sample_upea_block", "n"),
    ("upea.counting", "sample_upea_block", "n"),
    ("upea.harness", "mle_batch", "estimates"),
    ("upea.counting", "mle_counting_batch", "estimates"),
    ("upea.harness", "sample_uqca_block", "n"),
    ("upea.counting", "sample_uqca_block", "n"),
    ("upea.harness", "correct_mle", None),
    ("upea.harness", "correct_single", None),
    ("upea.harness", "grover_pea_pmf", None),
)
# counted without a span: one harness call to make_rng per sweep chunk
COUNTED = (("upea.harness", "make_rng"),)

_MB = float(1 << 20)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    work: int
    start: float = 0.0
    end: float = 0.0
    base: int = 0  # traced bytes at entry
    peak: int = 0  # highest traced bytes seen while open


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[Span] = []

    def _wrap(self, fn, work_arg: str | None):
        name = _span_name(fn)
        sig = inspect.signature(fn) if work_arg else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            work = 1
            if sig is not None:
                value = sig.bind(*args, **kwargs).arguments[work_arg]
                work = len(value) if hasattr(value, "__len__") else int(value)
            parent = self._open[-1] if self._open else None
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                # the parent's peak so far is lost on reset; fold it in first
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            span = Span(len(self.spans), name, parent.id if parent else None, work)
            span.base = span.peak = current
            self.spans.append(span)
            self._open.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
                if parent is not None:
                    parent.peak = max(parent.peak, span.peak)

        return wrapper

    def _counter(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        saved = []

        def patch(modname: str, attr: str, make) -> None:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is not None:
                saved.append((mod, attr, fn))
                setattr(mod, attr, make(fn))

        for modname, attr, work_arg in WRAPPED:
            patch(modname, attr, lambda fn: self._wrap(fn, work_arg))
        for modname, attr in COUNTED:
            patch(modname, attr, lambda fn: self._counter(fn, f"{modname}.{attr}"))
        tracemalloc.start()
        try:
            yield self
        finally:
            tracemalloc.stop()
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def records(self) -> list[dict]:
        return [
            {
                "id": s.id,
                "name": s.name,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "work": s.work,
                "peak_bytes": s.peak - s.base,
            }
            for s in self.spans
        ]


def module_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-module numbers of one traced pass, computed from its spans.

    Self time is a span's duration minus the durations of its direct
    children; calls run on one thread, so children never overlap."""
    child_time: dict[int, float] = defaultdict(float)
    for s in tracer.spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start

    def of(name):
        return [s for s in tracer.spans if s.name == name]

    def total(name):
        return sum((s.end - s.start for s in of(name)), 0.0)

    def self_time(name):
        return sum((s.end - s.start - child_time[s.id] for s in of(name)), 0.0)

    def work(name):
        return sum(s.work for s in of(name))

    def peak_mb(name):
        return max((s.peak - s.base for s in of(name)), default=0) / _MB

    return {
        "harness.sweep_s": total("harness.run_sweep"),
        "harness.cells": tracer.counts["upea.harness.make_rng"],
        "harness.self_s": self_time("harness.run_sweep"),
        "harness.verify_circuit_s": total("harness.run_verify_circuit"),
        "sampler.block_s": total("sampler.sample_upea_block"),
        "sampler.block_calls": len(of("sampler.sample_upea_block")),
        "sampler.trials": work("sampler.sample_upea_block"),
        "sampler.block_peak_mb": peak_mb("sampler.sample_upea_block"),
        "mle.batch_s": total("mle.mle_batch"),
        "mle.batch_rows": work("mle.mle_batch"),
        "mle.batch_peak_mb": peak_mb("mle.mle_batch"),
        "mle.counting_batch_s": total("mle.mle_counting_batch"),
        "mle.counting_batch_rows": work("mle.mle_counting_batch"),
        "mle.counting_batch_peak_mb": peak_mb("mle.mle_counting_batch"),
        "counting.calibrate_s": total("counting.calibrate_b"),
        "counting.calibrate_trials": work("counting.calibrate_b"),
        "counting.uqca_block_self_s": self_time("counting.sample_uqca_block"),
        "phase_math.exact_mae_upea_s": total("phase_math.exact_mae_upea"),
        "phase_math.exact_mae_upea_peak_mb": peak_mb("phase_math.exact_mae_upea"),
        "statevector.grover_pea_pmf_s": total("statevector.grover_pea_pmf"),
        "statevector.grover_pea_pmf_calls": len(of("statevector.grover_pea_pmf")),
    }
