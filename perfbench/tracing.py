"""Spans around calls into each dcsysid layer, recorded from outside the package.

:meth:`Tracer.installed` replaces the public functions of each layer at
the names their callers bind (``dcsysid.tuner.nll_algorithm_c``,
``dcsysid.kernel.dc_inverse_cholesky_factors`` as reached through
``likelihood._kernel``, ...) with wrappers that record a span per call,
and restores the originals on exit.  Spans stay in memory until the run
ends.  Untraced ops never see a wrapper.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute, span name).  A function bound under several names gets
# one entry per binding, all with the same span name.
TARGETS = (
    ("dcsysid", "RegressionData", "regression.RegressionData"),
    ("dcsysid", "tune", "tuner.tune"),
    ("dcsysid.cli", "main", "cli.main"),
    ("dcsysid.cli", "load_csv", "regression.load_csv"),
    ("dcsysid.cli", "RegressionData", "regression.RegressionData"),
    ("dcsysid.cli", "tune", "tuner.tune"),
    ("dcsysid.cli", "read_band_file", "maxent.read_band_file"),
    ("dcsysid.cli", "central_extension", "maxent.central_extension"),
    ("dcsysid.maxent", "check_feasibility", "maxent.check_feasibility"),
    ("dcsysid.tuner", "ls_estimate", "regression.ls_estimate"),
    ("dcsysid.tuner", "preprocess", "likelihood.preprocess"),
    ("dcsysid.tuner", "nll_algorithm_c", "likelihood.nll_algorithm_c"),
    ("dcsysid.tuner", "nll_gradient_hessian", "likelihood.nll_gradient_hessian"),
    ("dcsysid.tuner", "map_estimate", "likelihood.map_estimate"),
    ("dcsysid.tuner", "dc_inverse", "kernel.dc_inverse"),
    ("dcsysid.kernel", "dc_inverse", "kernel.dc_inverse"),
    ("dcsysid.kernel", "dc_inverse_cholesky_factors", "kernel.dc_inverse_cholesky_factors"),
    ("dcsysid.kernel", "dc_kernel_gradient", "kernel.dc_kernel_gradient"),
    ("dcsysid.kernel", "dc_kernel_hessian", "kernel.dc_kernel_hessian"),
)

ROOT = "op"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    error: str | None = None  # exception class, if the call raised
    flops: float = 0.0  # ObjectiveEvaluation.flops["total"] of the result
    finite: bool = True  # the result's objective value was finite


@dataclass
class Totals:
    """One span name's sums over a run."""

    calls: int = 0
    inclusive: float = 0.0
    exclusive: float = 0.0
    flops: float = 0.0
    finite: int = 0
    errors: Counter = field(default_factory=Counter)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _open_span(self, name: str) -> Span:
        # the innermost open span is the parent
        record = Span(name, 0.0, parent=self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(record)
        record.start = time.perf_counter()
        return record

    def _close_span(self, record: Span) -> None:
        record.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        """Record one span around the body."""
        record = self._open_span(name)
        try:
            yield record
        except Exception as exc:
            record.error = type(exc).__name__
            raise
        finally:
            self._close_span(record)

    def wrap(self, func, name: str):
        # written out rather than through span(): this runs on every
        # evaluator call, and a generator context manager costs more
        def traced(*args, **kwargs):
            record = self._open_span(name)
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                record.error = type(exc).__name__
                raise
            finally:
                self._close_span(record)
            flops = getattr(result, "flops", None)
            if isinstance(flops, dict):
                record.flops = float(flops["total"])
                record.finite = math.isfinite(result.value)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every TARGETS binding with a recording wrapper for the body."""
        originals = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start) - covered_length(children.get(i, ()), span.start, span.end)
        for i, span in enumerate(spans)
    ]


def totals_by_name(spans: list[Span]) -> dict[str, Totals]:
    out: dict[str, Totals] = {}
    for span, own in zip(spans, self_times(spans)):
        t = out.setdefault(span.name, Totals())
        t.calls += 1
        t.inclusive += span.end - span.start
        t.exclusive += own
        t.flops += span.flops
        t.finite += span.error is None and span.finite
        if span.error is not None:
            t.errors[span.error] += 1
    return out
