"""In-memory span tracing of the deconvbox layers, from outside the package.

`Tracer.install` replaces each traced public function by a timing wrapper
at every name its callers look it up by (the module attribute, and every
other deconvbox module that imported the same object), plus the numpy.fft
and scipy.fft entry points. `Tracer.uninstall` restores the originals.
Spans record name, start, end, parent id and operation id; they stay in
memory until `write_jsonl`, and `reduce_spans` turns them into counts and
self times.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

# (span name, module, attribute): functions wrapped in their module and at
# every other deconvbox module attribute bound to the same object.
TRACED_FUNCTIONS = (
    ("solver.simulate", "deconvbox.solver", "simulate"),
    ("solver.simulate_with_state", "deconvbox.solver", "simulate_with_state"),
    ("solver.step", "deconvbox.solver", "step"),
    ("solver.make_state", "deconvbox.solver", "make_state"),
    ("spectral.nonlinear_term", "deconvbox.spectral", "nonlinear_term"),
    ("spectral.leray_project", "deconvbox.spectral", "leray_project"),
    ("spectral.sobolev_norm", "deconvbox.spectral", "sobolev_norm"),
    ("spectral.inner_product", "deconvbox.spectral", "inner_product"),
    ("deconv.hn_symbol", "deconvbox.deconv", "hn_symbol"),
    ("config.generate_ic", "deconvbox.config", "generate_ic"),
    ("storage.write_snapshot", "deconvbox.storage", "write_snapshot"),
    ("storage.read_snapshot", "deconvbox.storage", "read_snapshot"),
    ("storage.write_timeseries", "deconvbox.storage", "write_timeseries"),
    ("storage.read_timeseries", "deconvbox.storage", "read_timeseries"),
    ("attractor.probe", "deconvbox.attractor", "ensemble_absorb_probe"),
)
# FFT entry points: (backend, module); both report as fft.<function>.
FFT_MODULES = (("numpy", "numpy.fft"), ("scipy", "scipy.fft"))
FFT_FUNCTIONS = {"irfftn": "fft.irfftn", "rfftn": "fft.rfftn"}


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _fft_attrs(backend: str, args, kwargs, out) -> dict:
    """Channels and bytes of one n-dimensional FFT call, from array sizes."""
    a = np.asarray(args[0] if args else kwargs["a"])
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    if axes is None:
        axes = range(a.ndim)
    transformed = 1
    for ax in axes:
        transformed *= a.shape[ax]
    return {
        "backend": backend,
        "channels": a.size // transformed,
        "bytes": int(a.nbytes + out.nbytes),
    }


class Tracer:
    """Collects spans; spans of one benchmark operation share its op id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self.op: int | None = None
        self._patches: list[tuple[object, str, object]] = []
        # Imported here, not in install(), so no traced operation pays for it.
        self._fft_modules = []
        for backend, module_name in FFT_MODULES:
            try:
                self._fft_modules.append((backend, importlib.import_module(module_name)))
            except ImportError:
                pass

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        with self._id_lock:
            self._next_id += 1
            span_id = self._next_id
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            # A worker thread's first span hangs under the span the main
            # thread is blocked in (the probe that started the pool).
            parent = self._main_stack[-1]
        else:
            parent = None
        span = Span(span_id, parent, self.op, name, time.perf_counter())
        stack.append(span_id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, name: str, fn, fft_backend: str | None = None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if fft_backend is not None:
                span.attrs = _fft_attrs(fft_backend, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every traced layer function, FilterParams.apply and the FFTs."""
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "deconvbox" or name.startswith("deconvbox.")
        ]
        for name, module_name, attr in TRACED_FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        deconv = importlib.import_module("deconvbox.deconv")
        self._patch(
            deconv.FilterParams, "apply", self.wrap("deconv.apply", deconv.FilterParams.apply)
        )
        for backend, module in self._fft_modules:
            for attr, name in FFT_FUNCTIONS.items():
                self._patch(
                    module, attr, self.wrap(name, getattr(module, attr), fft_backend=backend)
                )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans.

    Children running in parallel threads may overlap each other; their
    union is subtracted once.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None:
            clipped = (max(s.start, parent.start), min(s.end, parent.end))
            if clipped[1] > clipped[0]:
                children.setdefault(parent.id, []).append(clipped)
    return {
        s.id: (s.end - s.start) - _covered(children.get(s.id, [])) for s in spans
    }


@dataclass
class LayerStats:
    """Counts, durations and self times of every span with one name."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)
    channels: int = 0
    bytes: int = 0
    scipy_calls: int = 0


def reduce_spans(spans: list[Span]) -> dict[str, LayerStats]:
    selfs = self_times(spans)
    stats: dict[str, LayerStats] = {}
    for s in spans:
        st = stats.setdefault(s.name, LayerStats())
        dur = s.end - s.start
        st.count += 1
        st.total_s += dur
        st.self_s += selfs[s.id]
        st.durations.append(dur)
        st.channels += s.attrs.get("channels", 0)
        st.bytes += s.attrs.get("bytes", 0)
        st.scipy_calls += s.attrs.get("backend") == "scipy"
    return stats


def counts_by_op(spans: list[Span]) -> dict[int, dict[str, int]]:
    """Op id -> span name -> call count; equal across ops of one workload."""
    out: dict[int, dict[str, int]] = {}
    for s in spans:
        if s.op is not None:
            per_op = out.setdefault(s.op, {})
            per_op[s.name] = per_op.get(s.name, 0) + 1
    return out
