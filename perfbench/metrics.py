"""Metric arithmetic shared by the workloads."""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from typing import Dict, List, Mapping, Optional, Sequence

from repro.sim.results import geometric_mean

from tracer import RUN_PREFIX

SCHEDULERS = ("greedy", "autobraid", "rescq")

#: Per-layer self times and counts, per traced operation (a job on the sim
#: workloads, a request on ``serve``).  Self-time metrics share their span's
#: name; call and counter metrics name the span or counter they read.
SELF_TIME = (
    "exec.run_s", "scheduling.pass_s", "scheduling.mst_s", "lattice.route_s",
    "lattice.bfs_s", "kernel.dispatch_s", "rus.sample_s", "api.expand_s",
    "exec.fingerprint_s", "exec.cache_get_s", "exec.cache_put_s",
    "service.job_s", "canonical.dumps_s",
)
CALLS = {
    "scheduling.passes": "scheduling.pass_s",
    "lattice.route_calls": "lattice.route_s",
    "lattice.bfs_calls": "lattice.bfs_s",
    "rus.sample_calls": "rus.sample_s",
    "api.expands": "api.expand_s",
    "exec.fingerprints": "exec.fingerprint_s",
    "service.jobs": "service.job_s",
}
COUNTERS = {
    "scheduling.mst_builds": "mst_builds",
    "kernel.events": "events",
}
#: Set-up layers: mean self seconds per call, not per operation.
PER_CALL = ("workloads.build_s", "fabric.layout_s")

#: Time of one :class:`HostSpeed` calibration pass on the reference host.
#: End-to-end times and rates are scaled to that host speed.
REFERENCE_PASS_S = 0.014
#: The program's time follows the loop's time to this power.  Over 28
#: ``fabric1k`` and 127 ``fig10`` rounds on a shared two-vCPU host, scaling
#: by this power left round-to-round coefficients of variation of 0.037
#: and 0.052, against 0.068 and 0.065 at power 1 and 0.11 unscaled.
HOST_EXPONENT = 0.75
#: :meth:`HostSpeed.tick` times one pass per this much run time, and at
#: most ``MOST_PASSES`` at once.
PASS_INTERVAL_S = 0.25
MOST_PASSES = 8


def _calibration_pass() -> int:
    """A fixed pure-Python loop that shares no code with the program."""
    table = {}
    acc = 0
    for i in range(20_000):
        key = (i & 511, i >> 9)
        table[key] = [i, key]
        acc += len(table.get((i & 255, 0), ()))
    return acc


class HostSpeed:
    """The host's speed, sampled all through a run.

    On a shared host the time of one calibration pass jumps between modes
    (about 7.5, 13 and 22 ms on the two-vCPU host the bounds were set on)
    from one tenth of a second to the next, and the mix drifts over
    minutes.  A timed program integrates over that mix, so the benchmark
    samples the pass at short intervals through the measured period and
    scales each window of it (a round of a job plan, or five seconds of the
    ``serve`` loop) by the *mean* time of the passes taken in that window.
    The loop shares no code with the program, so a change to the program
    cannot move it.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last: Optional[float] = None
        self._owed = 0.0
        #: Scale factors of the windows scaled so far.
        self.windows: List[float] = []

    def _pass(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            began = time.perf_counter()
            _calibration_pass()
            self.samples.append(time.perf_counter() - began)
        finally:
            if enabled:
                gc.enable()

    def sample(self, passes: int = 1) -> float:
        """Time ``passes`` passes now, with the collector off; return the
        seconds spent."""
        began = time.perf_counter()
        for _ in range(passes):
            self._pass()
        self._last = time.perf_counter()
        return self._last - began

    def tick(self) -> float:
        """:meth:`sample` one pass per ``PASS_INTERVAL_S`` of run time since
        the last sample (one on the first tick, at most ``MOST_PASSES`` at
        once); return the seconds spent, which are not run time."""
        if self._last is None:
            return self.sample()
        self._owed += (time.perf_counter() - self._last) / PASS_INTERVAL_S
        due = min(MOST_PASSES, int(self._owed))
        self._owed = min(self._owed - due, 1.0)
        return self.sample(due)

    def describe(self) -> str:
        return (f"{len(self.samples)} calibration passes, mean "
                f"{1e3 * statistics.fmean(self.samples):.2f} ms, median "
                f"{1e3 * statistics.median(self.samples):.2f} ms, scale "
                f"factor per window {[round(f, 4) for f in self.windows]}")

    def window_factor(self, since: int) -> float:
        """The scale factor of one window of the run: the reference pass
        time over the mean time of the passes from index ``since`` on (the
        last pass if none was taken since), to the power
        ``HOST_EXPONENT``.  Recorded in ``windows``."""
        factor = (REFERENCE_PASS_S / statistics.fmean(
            self.samples[since:] or self.samples[-1:])) ** HOST_EXPONENT
        self.windows.append(factor)
        return factor


def cycle_gain(results) -> float:
    """Geometric mean over (circuit, seed) of min(greedy, autobraid) / rescq
    total cycles."""
    cycles = {(r.benchmark, r.scheduler, r.seed): r.total_cycles
              for r in results}
    gains = [min(cycles[(bench, "greedy", seed)],
                 cycles[(bench, "autobraid", seed)]) / rescq
             for (bench, scheduler, seed), rescq in cycles.items()
             if scheduler == "rescq"]
    return geometric_mean(gains)


def hardware_metrics(results) -> Dict[str, float]:
    """The modelled-hardware ``sim.*`` metrics (exact for a given seed)."""
    metrics: Dict[str, float] = {}
    for name in SCHEDULERS:
        metrics[f"sim.cycles.{name}"] = statistics.fmean(
            r.total_cycles for r in results if r.scheduler == name)
    rescq = [r for r in results if r.scheduler == "rescq"]
    rz = [t for r in rescq for t in r.traces if t.kind == "rz"]
    metrics["sim.rz_latency_cycles"] = statistics.fmean(
        t.end_cycle - t.scheduled_cycle for t in rz)
    metrics["sim.injections_per_rz"] = statistics.fmean(
        t.injections for t in rz)
    metrics["sim.prep_attempts_per_rz"] = statistics.fmean(
        t.preparation_attempts for t in rz)
    metrics["sim.idle_fraction"] = statistics.fmean(
        r.idle_fraction() for r in rescq)
    metrics["sim.rz_prestart_frac"] = sum(
        t.start_cycle < t.scheduled_cycle for t in rz) / len(rz)
    return metrics


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile by nearest rank: always one measured sample.

    Request latencies on ``fabric1k`` form two clusters (hits and misses)
    with a gap between them; an interpolating percentile would average
    across the gap.
    """
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)])


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(totals: Mapping[str, object], ops: int) -> Dict[str, float]:
    """Per-layer metrics from :meth:`Tracer.totals` over ``ops`` operations."""
    self_s, incl_s = totals["self_s"], totals["incl_s"]
    calls, counters = totals["calls"], totals["counters"]
    out: Dict[str, float] = {}
    for span in SELF_TIME:
        out[span] = self_s.get(span, 0.0) / ops
    for metric, span in CALLS.items():
        out[metric] = calls.get(span, 0) / ops
    for metric, counter in COUNTERS.items():
        out[metric] = counters.get(counter, 0) / ops
    for name in PER_CALL:
        out[name] = _ratio(self_s.get(name, 0.0), calls.get(name, 0))
    for name in SCHEDULERS:
        # Inclusive: the whole scheduler run, children included.
        out[RUN_PREFIX + name] = incl_s.get(RUN_PREFIX + name, 0.0) / ops
    out["kernel.other_s"] = sum(value for span, value in self_s.items()
                                if span.startswith(RUN_PREFIX)) / ops
    out["lattice.route_hit_ratio"] = _ratio(counters.get("plan_hits", 0),
                                            counters.get("plan_queries", 0))
    out["exec.cache_hit_ratio"] = _ratio(counters.get("cache_hits", 0),
                                         counters.get("cache_gets", 0))
    return out


def run_accounting_error(totals: Mapping[str, object]) -> float:
    """|wrapped self times + kernel.other_s - traced Scheduler.run time|.

    Zero up to float rounding when every span inside ``Scheduler.run`` was
    closed on the thread that opened it.
    """
    other = sum(value for span, value in totals["self_s"].items()
                if span.startswith(RUN_PREFIX))
    return abs(totals["inside_run_s"] + other - totals["run_s"])
