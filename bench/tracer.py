"""In-process span tracer for the per-layer run.

Spans are recorded from outside the program: each public function of a
layer is replaced by a timing wrapper in every ``triellipse`` module that
binds it, because ``cli`` and ``moments`` call through names they
from-imported (``global_moments_spectral`` is reached both from
``instantaneous_moments`` and from ``cli.analyze_signal``).  The numpy FFT
entry points are wrapped the same way to count the points each layer
transforms.  Nothing under ``src/`` is modified; ``Tracer.installed()``
restores every name on exit.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy.fft

# (module that defines the function, attribute) -> span name "<layer>.<function>"
TRACED = (
    ("triellipse.cli", "main"),
    ("triellipse.cli", "read_dataset"),
    ("triellipse.cli", "analyze_signal"),
    ("triellipse.analytic", "analytic_transform"),
    ("triellipse.analytic", "differentiate"),
    ("triellipse.ellipse", "ellipse_extract"),
    ("triellipse.ellipse", "ellipse_rates"),
    ("triellipse.moments", "instantaneous_moments"),
    ("triellipse.moments", "bandwidth_decompose"),
    ("triellipse.moments", "global_moments_time"),
    ("triellipse.moments", "global_moments_spectral"),
    ("triellipse.spectrum", "slepian_tapers"),
    ("triellipse.spectrum", "multitaper_joint_spectrum"),
    ("triellipse.synth", "make_reference_signal"),
)
# scipy's solver is traced only where triellipse.spectrum looks it up
EIGENSOLVE = ("triellipse.spectrum", "eigh_tridiagonal")
# spans whose peak traced allocation is recorded; they never nest in one another
PEAK_ALLOC = {
    "moments.global_moments_spectral",
    "spectrum.slepian_tapers",
    "spectrum.multitaper_joint_spectrum",
}
FFT_ENTRY_POINTS = ("fft", "ifft", "rfft", "irfft")


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    peak_alloc_bytes: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Holds the spans and FFT point counts of one traced run in memory."""

    spans: list[Span] = field(default_factory=list)
    fft_points: dict[tuple[int, str], int] = field(default_factory=dict)
    op: int = -1
    _stack: list[Span] = field(default_factory=list)

    def _wrap(self, name: str, fn):
        peak = name in PEAK_ALLOC

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                id=len(self.spans), name=name, op=self.op,
                parent=self._stack[-1].id if self._stack else None,
                start=time.perf_counter(),
            )
            self.spans.append(span)
            self._stack.append(span)
            if peak:
                tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                if peak:
                    span.peak_alloc_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    def _count_fft(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            caller = sys._getframe(1).f_globals.get("__name__", "?")
            key = (self.op, caller.rsplit(".", 1)[-1])
            self.fft_points[key] = self.fft_points.get(key, 0) + out.size
            return out

        return counted

    @contextmanager
    def installed(self, op: int):
        """Trace calls made inside the block as operation ``op``."""
        self.op = op
        saved: list[tuple[object, str, object]] = []

        def patch(owner, attr, new):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "triellipse" or name.startswith("triellipse."))
        ]
        try:
            for mod, attr in TRACED:
                original = getattr(sys.modules[mod], attr)
                wrapper = self._wrap(f"{mod.rsplit('.', 1)[-1]}.{attr}", original)
                for m in modules:
                    for bound, value in list(vars(m).items()):
                        if value is original:
                            patch(m, bound, wrapper)
            mod, attr = EIGENSOLVE
            solver = getattr(sys.modules[mod], attr)
            patch(sys.modules[mod], attr, self._wrap("spectrum.eigensolve", solver))
            for attr in FFT_ENTRY_POINTS:
                patch(numpy.fft, attr, self._count_fft(getattr(numpy.fft, attr)))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)
            self.op = -1


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct child spans cover."""
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def op_layers(
    spans: list[Span], fft_points: dict[tuple[int, str], int], op: int
) -> dict[str, float]:
    """Per-layer values of one traced operation, keyed by metric name.

    A metric is present only when its layer ran in the operation, so a
    median over operations counts only those in which the layer ran.
    Times are seconds; ``*_self_s`` subtract the child spans; FFT points
    are computed counts (output elements of each numpy.fft call), not
    measured traffic.
    """
    mine = [s for s in spans if s.op == op]
    own = self_seconds(mine)
    by: dict[str, list[Span]] = {}
    for s in mine:
        by.setdefault(s.name, []).append(s)
    out: dict[str, float] = {}

    def total(metric, name):
        if name in by:
            out[metric] = sum(s.seconds for s in by[name])

    def self_(metric, name):
        if name in by:
            out[metric] = sum(own[s.id] for s in by[name])

    def calls(metric, name):
        if name in by:
            out[metric] = len(by[name])

    def peak(metric, name):
        if name in by:
            out[metric] = max(s.peak_alloc_bytes for s in by[name]) / 1e6

    total("cli.read_dataset_s", "cli.read_dataset")
    self_("cli.main_self_s", "cli.main")
    self_("cli.analyze_signal_self_s", "cli.analyze_signal")
    total("analytic.transform_s", "analytic.analytic_transform")
    total("analytic.differentiate_s", "analytic.differentiate")
    calls("analytic.differentiate_calls", "analytic.differentiate")
    total("ellipse.extract_s", "ellipse.ellipse_extract")
    total("ellipse.rates_s", "ellipse.ellipse_rates")
    self_("moments.instantaneous_self_s", "moments.instantaneous_moments")
    self_("moments.bandwidth_self_s", "moments.bandwidth_decompose")
    total("moments.global_time_s", "moments.global_moments_time")
    total("moments.global_spectral_s", "moments.global_moments_spectral")
    calls("moments.global_spectral_calls", "moments.global_moments_spectral")
    peak("moments.global_spectral_peak_alloc_mb", "moments.global_moments_spectral")
    total("spectrum.tapers_s", "spectrum.slepian_tapers")
    total("spectrum.eigensolve_s", "spectrum.eigensolve")
    self_("spectrum.concentration_self_s", "spectrum.slepian_tapers")
    peak("spectrum.tapers_peak_alloc_mb", "spectrum.slepian_tapers")
    total("spectrum.multitaper_s", "spectrum.multitaper_joint_spectrum")
    peak("spectrum.multitaper_peak_alloc_mb", "spectrum.multitaper_joint_spectrum")
    total("synth.reference_s", "synth.make_reference_signal")
    for (o, module), points in fft_points.items():
        if o == op and module in ("analytic", "moments", "spectrum"):
            out[f"{module}.fft_points"] = points
    return out


def covered_seconds(spans: list[Span], op: int) -> float:
    """Time the operation's outermost spans cover; their self times sum to it."""
    return sum(s.seconds for s in spans if s.op == op and s.parent is None)
