"""Timing, spans and gate bookkeeping for one repetition.

Every call into a public function of ``subharnack`` goes through
``Tracer.call``.  With tracing on it records a span ``[name, start, end,
parent, failed]``, where ``parent`` is the index of the enclosing span or
-1; the repetition id is attached by the runner.

Calibration probe.  The host this benchmark was written on (a 2-vCPU KVM
guest) changes speed by up to 2x within seconds as other guests load it,
and no median over one run removes that.  So a fixed probe of interpreter
work (function calls and dict stores) is timed at top-level call
boundaries, at most every PROBE_EVERY_S.  The work between two probes is a
segment, and each segment is also reported rescaled by PROBE_NOMINAL_S /
(mean of the probes at its two ends): its time at the probe's nominal
speed.  On that host every workload's time scaled with this probe's time to
the power 0.94-0.98, against 1.3-1.7 for array-pass and small-array probes.
Probe time is excluded from every reported time.  The probe is benchmark
code; the program cannot change its cost.
"""

from __future__ import annotations

import math
import time

PROBE_NOMINAL_S = 0.010    # a typical probe time on that guest (Xeon, AVX-512)
PROBE_LOOPS = 60_000
PROBE_EVERY_S = 0.15


def _probe_step(x, y=1):
    return x * y + 1


def probe() -> float:
    """Run the calibration probe once; returns its duration in seconds."""
    t0 = time.perf_counter()
    table = {}
    for i in range(PROBE_LOOPS):
        table[i & 255] = _probe_step(i, 2)
    return time.perf_counter() - t0


class Tracer:
    """Times gated problems and the calls inside them; records spans while
    ``enabled``."""

    def __init__(self, enabled: bool, gates: "Gates"):
        self.enabled = enabled
        self.gates = gates
        self.spans = []        # [name, start, end, parent, failed]
        self.counts = {}       # computed work counts, name -> total
        self.probes = []       # probe durations, seconds
        self.problems = []     # per problem: [(segment seconds, probe before)]
        self._stack = []
        self._depth = 0
        self._last = -math.inf
        self._segments = None  # segments of the running problem
        self._seg_start = 0.0

    def _checkpoint(self) -> None:
        """Take a probe if one is due, closing and reopening the segment."""
        now = time.perf_counter()
        if now - self._last < PROBE_EVERY_S:
            return
        if self._segments is not None:
            self._segments.append((now - self._seg_start, len(self.probes) - 1))
        self.probes.append(probe())
        self._last = self._seg_start = time.perf_counter()

    def problem(self, name: str, body) -> None:
        """Run one gated problem; an exception is one failed check."""
        self._checkpoint()
        self._segments = []
        self._seg_start = time.perf_counter()
        try:
            body()
        except Exception as exc:  # a layer that raises fails its problem
            self.gates.error(name, exc)
        self._segments.append((time.perf_counter() - self._seg_start,
                               len(self.probes) - 1))
        self.problems.append(self._segments)
        self._segments = None

    def call(self, name: str, fn, *args, **kwargs):
        if self._depth == 0:
            self._checkpoint()
        self._depth += 1
        try:
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
        finally:
            self._depth -= 1

    def finish(self) -> dict:
        """Raw and nominal-speed problem times (ms), and the probe times."""
        self._last = -math.inf
        self._checkpoint()
        p = self.probes
        raw = [1e3 * sum(d for d, _ in segs) for segs in self.problems]
        norm = [1e3 * sum(d * 2.0 * PROBE_NOMINAL_S / (p[k] + p[k + 1])
                          for d, k in segs) for segs in self.problems]
        return {"problem_ms": raw, "problem_norm_ms": norm, "probe_s": p}

    def count(self, name: str, amount) -> None:
        """Add to a computed work count (recorded with tracing on or off)."""
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, amount) -> None:
        """Keep the largest value of a computed size."""
        self.counts[name] = max(self.counts.get(name, 0), amount)


class Gates:
    """Counts gated checks; a check that raises counts as one failure."""

    def __init__(self, reference: dict | None, rtol: float):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.headline = {}
        self._reference = reference
        self._rtol = rtol

    def check(self, name: str, ok: bool, detail="") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")

    def error(self, name: str, exc: BaseException) -> None:
        self.check(name, False, f"{type(exc).__name__}: {exc}")

    def record(self, name: str, value: float, atol: float = 0.0) -> None:
        """Store a headline output and compare it with the reference record.

        ``atol`` is for outputs that are themselves small residuals, where a
        change in rounding alone moves many relative digits.
        """
        value = float(value)
        self.headline[name] = value
        if self._reference is None:
            return
        ref = self._reference.get(name)
        if ref is None:
            self.check(f"reference.{name}", False, "missing from the reference")
            return
        ok = (math.isfinite(value)
              and abs(value - ref) <= self._rtol * abs(ref) + atol)
        self.check(f"reference.{name}", ok,
                   f"{value!r} vs {ref!r} (rtol {self._rtol:g}, atol {atol:g})")
