"""The ``fig10`` and ``fabric1k`` workloads: job plans run in-process.

Each workload runs rounds of one fixed job plan, built the way ``rescq run``
builds it: for every circuit a fresh STAR layout from ``default_layout``,
then ``plan_jobs`` over greedy, autobraid and rescq and the simulation
seeds, executed serially through a cacheless ``ExecutionEngine``.  A fresh
layout per round means every round pays the cold routing caches a user pays
on every new layout.  Every job goes through ``ExecutionEngine.run`` on its
own.  A *request* is one comparison point, a row of the ``rescq run``
table: greedy, autobraid and rescq on one circuit and simulation seed.  Its
latency is the time of its three jobs.  On a fresh layout the first
seed's point is a *miss*: none of its schedulers' routes is in the
layout's ``RoutingIndex`` yet.  Later seeds' points reuse them and are
*hits*.

Every result is checked against trace invariants computed here from the
circuit alone, sharing no code with the kernel.  Rounds must be
byte-identical, and on the default seed their digest must equal the one
committed in ``expected.json``.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro import SimulationConfig
from repro.analysis.export import result_to_dict
from repro.canonical import canonical_dumps
from repro.exec import ExecutionEngine, plan_jobs
from repro.scheduling import DEFAULT_SCHEDULER_NAMES, SCHEDULER_REGISTRY
from repro.sim import runner
from repro.workloads import (dnn_circuit, gcm_circuit,
                             hamiltonian_simulation_circuit, ising_circuit,
                             qaoa_fermionic_swap_circuit,
                             qaoa_vanilla_circuit, qft_circuit, qugan_circuit,
                             vqe_circuit, wstate_circuit)
from repro.workloads.scenarios import clifford_rz_circuit

from metrics import (HostSpeed, cycle_gain, hardware_metrics, peak_rss_mb,
                     percentile)
from tracer import Tracer, install

#: Circuit generation plus layout construction is repeated this many times
#: during set-up; ``setup_s`` reports the median.
SETUP_REPEATS = 5
#: Host-speed passes after each set-up repeat; ``setup_s`` is scaled by
#: their mean.
SETUP_PASSES = 3


def fig10_circuits(_seed: int):
    """The laptop-scale Figure 10 suite (``evaluation_suite`` in
    ``benchmarks/conftest.py``), pinned here so the benchmark's inputs do
    not move when the harness changes."""
    return [
        ising_circuit(12),
        qft_circuit(10),
        qugan_circuit(11),
        gcm_circuit(10, generator_terms=30),
        dnn_circuit(10, layers=3),
        wstate_circuit(12),
        hamiltonian_simulation_circuit(12),
        qaoa_vanilla_circuit(10, rounds=1),
        qaoa_fermionic_swap_circuit(10, rounds=1),
        vqe_circuit(10),
    ]


def fabric1k_circuits(seed: int):
    """250 data qubits: a 32x32 = 1024-tile STAR fabric, ~3.7k gates."""
    return [clifford_rz_circuit(n=250, depth=20, seed=seed)]


#: workload -> (circuit builder taking the seed, simulation seeds per run).
WORKLOADS = {
    "fig10": (fig10_circuits, 4),
    "fabric1k": (fabric1k_circuits, 2),
}


# -- output checks ---------------------------------------------------------


def trace_violations(circuit, result) -> List[str]:
    """Invariants every scheduler's trace must satisfy.

    Predecessors are recomputed from per-qubit program order.  RESCQ may
    start an Rz before the gate is released (lookahead and eager
    preparation), so ``start >= scheduled`` and ``start >= pred.end`` are
    deliberately not required.
    """
    gates = list(circuit.without_free_gates())
    problems: List[str] = []
    seen = Counter(trace.gate_index for trace in result.traces)
    if sorted(seen) != list(range(len(gates))) or any(
            count != 1 for count in seen.values()):
        problems.append(f"{len(result.traces)} traces for {len(gates)} "
                        f"gates, {len(seen)} distinct")
    by_index = {trace.gate_index: trace for trace in result.traces}
    last_on_qubit: Dict[int, int] = {}
    for index, gate in enumerate(gates):
        preds = {last_on_qubit[q] for q in gate.qubits if q in last_on_qubit}
        for qubit in gate.qubits:
            last_on_qubit[qubit] = index
        trace = by_index.get(index)
        if trace is None:
            continue
        if trace.start_cycle > trace.end_cycle:
            problems.append(f"gate {index}: start after end")
        if trace.scheduled_cycle > trace.end_cycle:
            problems.append(f"gate {index}: scheduled after end")
        for pred in preds:
            before = by_index.get(pred)
            if before is not None and trace.scheduled_cycle < before.end_cycle:
                problems.append(f"gate {index}: scheduled before "
                                f"predecessor {pred} ended")
    last_end = max((trace.end_cycle for trace in result.traces), default=0)
    if result.total_cycles != last_end:
        problems.append(f"total_cycles {result.total_cycles} != last end "
                        f"{last_end}")
    return problems


def digest(results) -> str:
    """SHA-256 over the canonical serialisation of results, in plan order."""
    hasher = hashlib.sha256()
    for result in results:
        hasher.update(canonical_dumps(result_to_dict(result)).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


# -- the run ---------------------------------------------------------------


class _Round:
    """One pass over the job plan: wall time, results, request latencies."""

    __slots__ = ("wall", "results", "hits", "misses")

    def __init__(self) -> None:
        self.wall = 0.0
        self.results: list = []
        self.hits: List[float] = []
        self.misses: List[float] = []


def _run_round(circuits, schedulers, config, seeds: Sequence[int],
               engine: ExecutionEngine,
               host: Optional[HostSpeed] = None) -> _Round:
    """Run the plan once; ``host`` is sampled between jobs, and the time
    its samples take is left out of the round's wall time."""
    out = _Round()
    perf = time.perf_counter
    paused = 0.0
    start = perf()
    for circuit in circuits:
        layout = runner.default_layout(circuit)
        jobs = plan_jobs(schedulers, circuit, config, layout, seeds)
        point_s = dict.fromkeys(seeds, 0.0)  # request latency per seed
        for job in jobs:
            began = perf()
            out.results.extend(engine.run([job]))
            point_s[job.seed] += perf() - began
            if host is not None:
                paused += host.tick()
        out.misses.append(point_s.pop(seeds[0]))
        out.hits.extend(point_s.values())
    out.wall = perf() - start - paused
    return out


def _setup(build, seed: int, tracer: Tracer, host: Optional[HostSpeed]):
    """Build the circuits and their layouts ``SETUP_REPEATS`` times, with
    ``SETUP_PASSES`` host-speed passes after each; return the circuits and
    the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        with tracer.span("workloads.build_s"):
            circuits = build(seed)
        for circuit in circuits:
            runner.default_layout(circuit)
        times.append(time.perf_counter() - began)
        if host is not None:
            host.sample(SETUP_PASSES)
    return circuits, statistics.median(times)


def run(workload: str, seed: int, seconds: float, trace: bool,
        import_s: float, expected_digest: Optional[str] = None) -> dict:
    """Run one sim workload; return the result record for ``run.py``."""
    build, seeds_per_run = WORKLOADS[workload]
    sim_seeds = [seed * seeds_per_run + i for i in range(seeds_per_run)]
    schedulers = [SCHEDULER_REGISTRY.create(name)
                  for name in DEFAULT_SCHEDULER_NAMES]
    config = SimulationConfig()
    engine = ExecutionEngine()
    tracer = Tracer()
    # End-to-end runs sample the host's speed all through; traced runs
    # report per-layer metrics, which are not scaled.
    host = None if trace else HostSpeed()

    if trace:
        install(tracer)
    circuits, setup_median = _setup(build, seed, tracer, host)
    setup_s = import_s + setup_median
    # Set-up is scaled by the passes taken during it.
    setup_factor = host.window_factor(0) if host is not None else 1.0
    tracer.uninstall()
    by_name = {circuit.name: circuit for circuit in circuits}

    # Only the first round's results are kept: later rounds must equal it.
    first: List = []
    first_digest = ""
    walls: List[float] = []
    rates: List[Tuple[float, float]] = []  # (cycles/s, req/s) per round
    hits: List[float] = []
    misses: List[float] = []
    traced: List[Tuple[float, int, Counter]] = []  # (wall, jobs, counts)
    failures: List[str] = []
    failed_jobs = 0
    while True:
        # A traced run alternates untraced reference rounds (even) with
        # traced rounds (odd).
        tracing = trace and len(walls) % 2 == 1
        if tracing:
            install(tracer)
            before = _counts(tracer)
        first_pass = len(host.samples) if host is not None else 0
        current = _run_round(circuits, schedulers, config, sim_seeds, engine,
                             host)
        # Each round is scaled by the host speed sampled during it.
        factor = (host.window_factor(first_pass) if host is not None
                  else 1.0)
        if tracing:
            tracer.uninstall()
            traced.append((current.wall, len(current.results),
                           _counts(tracer) - before))
        if not first:
            first = current.results
            first_digest = digest(first)
            for result in first:
                problems = trace_violations(by_name[result.benchmark], result)
                if problems:
                    failed_jobs += 1
                    failures.append(f"{result.benchmark}/{result.scheduler}/"
                                    f"seed{result.seed}: {problems[:3]}")
        elif current.results != first:
            differing = sum(a != b for a, b in zip(current.results, first))
            failed_jobs += differing
            failures.append(f"round {len(walls)}: {differing} results differ "
                            f"from the first round")
        walls.append(current.wall)
        scaled_wall = current.wall * factor
        rates.append((sum(r.total_cycles for r in current.results)
                      / scaled_wall,
                      (len(current.hits) + len(current.misses))
                      / scaled_wall))
        hits.extend(latency * factor for latency in current.hits)
        misses.extend(latency * factor for latency in current.misses)
        # Free this round's results and layout (the routing caches hold a
        # reference cycle) before the next round, so peak memory does not
        # depend on when the cyclic collector happens to run.
        del current
        gc.collect()
        if sum(walls) >= seconds and (traced or not trace):
            break

    if expected_digest is not None and first_digest != expected_digest:
        failures.append(f"digest {first_digest} != committed "
                        f"{expected_digest}")
    record = {"attempted": len(first) * len(walls), "failed": failed_jobs,
              "failures": failures, "digest": first_digest}

    if not trace:
        latencies = hits + misses
        record["diagnostics"] = (f"unscaled setup_s {setup_s:.4f}, "
                                 f"{host.describe()}")
        record["metrics"] = {
            "setup_s": setup_s * setup_factor,
            "peak_rss_mb": peak_rss_mb(),
            "sim_cycles_per_s": statistics.median(r[0] for r in rates),
            "rescq_cycle_gain": cycle_gain(first),
            "req_per_s": statistics.median(r[1] for r in rates),
            "req_p50_ms": 1e3 * percentile(latencies, 50),
            "req_p99_ms": 1e3 * percentile(latencies, 99),
            "hit_p50_ms": 1e3 * percentile(hits, 50),
            "miss_p50_ms": 1e3 * percentile(misses, 50),
        }
        return record

    # Cross-check the traced counts against the kernel's own profile
    # counters for the same plan (untraced, profile_enabled=True).
    profiled = _run_round(circuits, schedulers,
                          config.with_updates(profile_enabled=True),
                          sim_seeds, engine)
    expected = Counter()
    for result in profiled.results:
        for ours, theirs in (("passes", "scheduling_passes"),
                             ("events", "events"),
                             ("mst_builds", "mst_builds")):
            expected[ours] += int(result.profile.get(theirs, 0))
    for _wall, _jobs, counts in traced:
        got = {key: int(counts[key]) for key in expected}
        if got != dict(expected):
            failures.append(f"traced counts {got} != profile counts "
                            f"{dict(expected)}")
    if digest(profiled.results) != first_digest:
        failures.append("profiled round is not byte-identical")

    record["tracer"] = tracer
    record["ops"] = sum(jobs for _wall, jobs, _counts in traced)
    record["overhead"] = (statistics.median(wall for wall, _j, _c in traced)
                          / statistics.median(walls[0::2]) - 1.0)
    record["sim"] = hardware_metrics(first)
    return record


def _counts(tracer: Tracer) -> Counter:
    totals = tracer.totals()
    counts = Counter(totals["counters"])
    counts["passes"] = totals["calls"]["scheduling.pass_s"]
    return counts
