"""The ``serve`` workload: a closed loop against an in-process cluster.

``ClusterHarness`` runs a ``ShardRouter`` in front of two
``ExperimentServer`` shards, each with its own ``ServiceExecutor`` worker
pool (``nproc`` workers in all) and directory cache, on loopback ports.
``nproc`` client threads each send their next request only after the
previous NDJSON stream has been read to its end.

A request is one small comparison spec: one ``scenario:clifford_t`` circuit
x greedy, autobraid and rescq x two simulation seeds, so its six jobs split
across both shards.  About four in five requests repeat one of the specs
primed during set-up (cache reads); the rest carry a circuit never seen
before (execution plus cache writes).  A request whose summary reports no
executed job is a *hit*, any other a *miss*.  The seed fixes the circuits,
the simulation seeds and the order and mix of requests.

Every response row must be byte-identical to the row the same spec gives
when run in-process through ``run_experiment``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import statistics
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.api import ExperimentSpec, run_experiment
from repro.canonical import canonical_dumps
from repro.cluster import ClusterHarness
from repro.exec.cache import DirectoryCache

from metrics import (HostSpeed, cycle_gain, hardware_metrics, peak_rss_mb,
                     percentile)
from tracer import Tracer, install

#: Specs primed into the cluster's caches during set-up.
PRIMED_SPECS = 32
#: Share of requests that repeat a primed spec.
REPEAT_SHARE = 0.8
#: Cluster start plus priming is repeated this many times during set-up;
#: ``setup_s`` reports the median.
SETUP_REPEATS = 3
#: Request pairs sent via the router and directly to a shard to measure the
#: router's overhead on a cache hit (traced run only).
OVERHEAD_PAIRS = 40
#: An end-to-end run's loop is cut into segments this long; the host's
#: speed is sampled between them, with no request in flight.
SEGMENT_S = 0.5
#: Each window of segments this long is scaled by the host speed sampled
#: in it.
WINDOW_S = 5.0
CIRCUIT = "scenario:clifford_t:n=4,depth=3,seed={}"
SCHEDULERS = ["greedy", "autobraid", "rescq"]


def spec_payload(circuit_seed: int, sim_seeds: List[int]) -> dict:
    return {"name": f"serve-{circuit_seed}",
            "benchmarks": [CIRCUIT.format(circuit_seed)],
            "schedulers": SCHEDULERS, "seeds": sim_seeds}


class _Sample:
    """One answered request: spec key, latency, hit or miss, response."""

    __slots__ = ("key", "latency", "hit", "ok", "body")

    def __init__(self, key, latency, hit, ok, body) -> None:
        self.key, self.latency, self.hit = key, latency, hit
        self.ok, self.body = ok, body


def _send(cluster: ClusterHarness, key: int, payload: dict,
          request_id: str, tracer: Tracer) -> _Sample:
    envelope = {"spec": payload, "request_id": request_id}
    began = time.perf_counter()
    try:
        with tracer.span("client.request", request_id=request_id):
            status, _headers, body = cluster.request("POST", "/experiments",
                                                     envelope)
    except (OSError, http.client.HTTPException) as exc:
        status, body = None, repr(exc).encode()
    latency = time.perf_counter() - began
    try:
        summary = json.loads(body.decode().splitlines()[-1])
    except (ValueError, IndexError):
        summary = {}
    ok = (status == 200 and summary.get("type") == "summary"
          and not summary.get("errors"))
    return _Sample(key, latency, ok and summary.get("executed") == 0, ok,
                   body)


class _Requests:
    """The seeded request stream, handed out one request at a time."""

    def __init__(self, seed: int, primed: Dict[int, dict],
                 sim_seeds: List[int]) -> None:
        self._rng = random.Random(seed)
        self._primed = sorted(primed)
        self._payloads = primed
        self._sim_seeds = sim_seeds
        self._next_fresh = max(primed) + 1
        self._issued = 0
        self._lock = threading.Lock()

    def next(self) -> Tuple[int, dict, str]:
        with self._lock:
            self._issued += 1
            if self._rng.random() < REPEAT_SHARE:
                key = self._rng.choice(self._primed)
            else:
                key = self._next_fresh
                self._next_fresh += 1
                self._payloads[key] = spec_payload(key, self._sim_seeds)
            return key, self._payloads[key], f"req-{self._issued}"


def _closed_loop(cluster, requests: _Requests, clients: int, seconds: float,
                 tracer: Tracer, host: Optional[HostSpeed] = None
                 ) -> Tuple[List[_Sample], float]:
    """Run the clients for ``seconds`` of loop time; return the samples and
    the loop's wall time.

    With ``host``, the loop runs in segments of ``SEGMENT_S`` and the host
    is sampled between them; the passes' time is not loop time.  Each
    ``WINDOW_S`` of segments is then scaled to the reference host: its
    latencies and wall time are multiplied by the factor of the passes
    taken in it.
    """
    if host is None:
        return _segment(cluster, requests, clients, seconds, tracer)
    samples: List[_Sample] = []
    elapsed = scaled = 0.0
    while elapsed < seconds:
        first_pass = len(host.samples)
        window: List[_Sample] = []
        window_wall = 0.0
        while window_wall < WINDOW_S and elapsed + window_wall < seconds:
            got, took = _segment(
                cluster, requests, clients,
                min(SEGMENT_S, seconds - elapsed - window_wall), tracer)
            window.extend(got)
            window_wall += took
            host.tick()
        factor = host.window_factor(first_pass)
        for sample in window:
            sample.latency *= factor
        samples.extend(window)
        elapsed += window_wall
        scaled += window_wall * factor
    return samples, scaled


def _segment(cluster, requests: _Requests, clients: int, seconds: float,
             tracer: Tracer) -> Tuple[List[_Sample], float]:
    """Run the clients until ``seconds`` pass; return samples and wall."""
    samples: List[_Sample] = []
    lock = threading.Lock()
    failures: List[BaseException] = []
    deadline = time.perf_counter() + seconds

    def client() -> None:
        try:
            while time.perf_counter() < deadline:
                key, payload, request_id = requests.next()
                sample = _send(cluster, key, payload, request_id, tracer)
                with lock:
                    samples.append(sample)
        except BaseException as exc:  # noqa: BLE001 - reported by the caller
            failures.append(exc)

    threads = [threading.Thread(target=client, name=f"client-{index}")
               for index in range(clients)]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
        if thread.is_alive():
            raise RuntimeError("a client thread did not finish")
    wall = time.perf_counter() - began
    if failures:
        raise failures[0]
    return samples, wall


def _start_cluster(primed: Dict[int, dict], nproc: int, cache_dir: str,
                   tracer: Tracer) -> Tuple[ClusterHarness, List[_Sample]]:
    """Start the cluster with fresh shard caches under ``cache_dir``, then
    send every primed spec once."""
    cluster = ClusterHarness(
        shards=2, max_workers=max(1, nproc // 2),
        cache_factory=lambda index: DirectoryCache(
            os.path.join(cache_dir, f"shard{index}")))
    cluster.start()
    try:
        samples = [_send(cluster, key, payload, f"prime-{key}", tracer)
                   for key, payload in sorted(primed.items())]
    except BaseException:
        cluster.stop()
        raise
    return cluster, samples


def _rows(body: bytes) -> List[str]:
    return body.decode().splitlines()[:-1]


def _verify(samples: List[_Sample], payloads: Dict[int, dict]
            ) -> Tuple[int, List[str], Dict[int, list]]:
    """Compare every response with the in-process ``run_experiment`` rows.

    Returns the failed count, a few failure messages and the in-process
    results per spec.
    """
    expected: Dict[int, List[str]] = {}
    results: Dict[int, list] = {}
    failed, failures = 0, []
    for sample in samples:
        if sample.key not in expected:
            local = run_experiment(
                ExperimentSpec.from_dict(payloads[sample.key]))
            expected[sample.key] = [canonical_dumps(row)
                                    for row in local.summary_rows()]
            results[sample.key] = [row.result for row in local.rows]
        if not sample.ok or _rows(sample.body) != expected[sample.key]:
            failed += 1
            if len(failures) < 5:
                failures.append(f"spec {sample.key}: response differs from "
                                f"run_experiment: {sample.body[:200]!r}")
    return failed, failures, results


def _router_overhead_ms(cluster: ClusterHarness, payload: dict) -> float:
    """Median hit latency via the router minus directly from one shard.

    The spec is first sent to shard 0 directly, so that shard caches every
    job of it (the router would have split them across both shards).
    """
    envelope = {"spec": payload}
    cluster.shard_request(0, "POST", "/experiments", envelope)
    routed, direct = [], []
    for _ in range(OVERHEAD_PAIRS):
        for target, out in ((None, routed), (0, direct)):
            began = time.perf_counter()
            if target is None:
                status, _h, _b = cluster.request("POST", "/experiments",
                                                 envelope)
            else:
                status, _h, _b = cluster.shard_request(
                    target, "POST", "/experiments", envelope)
            out.append(time.perf_counter() - began)
            if status != 200:
                raise RuntimeError(f"overhead probe got HTTP {status}")
    return 1e3 * (statistics.median(routed) - statistics.median(direct))


def run(seed: int, seconds: float, trace: bool, import_s: float,
        nproc: int, work_dir: str) -> dict:
    """Run the serve workload; return the result record for ``run.py``.

    ``nproc`` sizes the client threads and the worker pools.  The shard
    caches live in a temporary directory under ``work_dir``, removed when
    the run ends.
    """
    os.makedirs(work_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="serve-", dir=work_dir) as tmp:
        return _run(seed, seconds, trace, import_s, nproc, tmp)


def _run(seed: int, seconds: float, trace: bool, import_s: float,
         nproc: int, tmp: str) -> dict:
    sim_seeds = [2 * seed, 2 * seed + 1]
    base = seed * 1_000_000
    payloads = {base + index: spec_payload(base + index, sim_seeds)
                for index in range(PRIMED_SPECS)}
    tracer = Tracer()
    cluster: Optional[ClusterHarness] = None
    setup_times = []
    # End-to-end runs sample the host's speed all through; traced runs
    # report per-layer metrics, which are not scaled.
    host = None if trace else HostSpeed()
    try:
        for repeat in range(SETUP_REPEATS):
            if cluster is not None:
                cluster.stop()
                cluster = None
            began = time.perf_counter()
            cluster, primed = _start_cluster(
                dict(payloads), nproc, os.path.join(tmp, f"setup{repeat}"),
                tracer)
            setup_times.append(time.perf_counter() - began)
            if host is not None:
                host.tick()
        setup_s = import_s + statistics.median(setup_times)
        # Set-up is scaled by the passes taken during it.
        setup_factor = host.window_factor(0) if host is not None else 1.0

        requests = _Requests(seed, payloads, sim_seeds)
        record: dict = {}
        if not trace:
            samples, wall = _closed_loop(cluster, requests, nproc, seconds,
                                         tracer, host)
            served = samples
        else:
            # First half untraced (the reference), second half traced.
            reference, ref_wall = _closed_loop(cluster, requests, nproc,
                                               seconds / 2, tracer)
            install(tracer)
            samples, wall = _closed_loop(cluster, requests, nproc,
                                         seconds / 2, tracer)
            tracer.uninstall()
            record["overhead"] = ((len(reference) / ref_wall)
                                  / (len(samples) / wall) - 1.0)
            record["router_overhead_ms"] = _router_overhead_ms(
                cluster, payloads[base])
            status, _h, body = cluster.request("GET", "/stats")
            if status != 200:
                raise RuntimeError(f"/stats returned HTTP {status}")
            stats = json.loads(body)
            record["dedup_ratio"] = (stats["cluster"]["deduped"]
                                     / max(1, stats["cluster"]["jobs"]))
            record["retried"] = stats["router"]["retried"]
            served = reference + samples
        rss_mb = peak_rss_mb()  # before the in-process verification runs
    finally:
        if cluster is not None:
            cluster.stop()

    checked = primed + served
    failed, failures, results = _verify(checked, payloads)
    record.update({"attempted": len(checked), "failed": failed,
                   "failures": failures})
    # The primed specs' results, verified byte-equal to what was served.
    primed_results = [result for sample in primed
                      for result in results[sample.key]]
    if trace:
        record["tracer"] = tracer
        record["ops"] = len(samples)
        record["sim"] = hardware_metrics(primed_results)
        return record

    latencies = [s.latency for s in samples]
    hits = [s.latency for s in samples if s.hit]
    misses = [s.latency for s in samples if not s.hit]
    cycles = sum(json.loads(line)["total_cycles"]
                 for sample in samples for line in _rows(sample.body))
    # Latencies and wall are already scaled, window by window.
    record["metrics"] = {
        "setup_s": setup_s * setup_factor,
        "peak_rss_mb": rss_mb,
        "sim_cycles_per_s": cycles / wall,
        "rescq_cycle_gain": cycle_gain(primed_results),
        "req_per_s": len(samples) / wall,
        "req_p50_ms": 1e3 * percentile(latencies, 50),
        "req_p99_ms": 1e3 * percentile(latencies, 99),
        "hit_p50_ms": 1e3 * percentile(hits, 50),
        "miss_p50_ms": 1e3 * percentile(misses, 50),
    }
    record["diagnostics"] = (f"unscaled setup_s {setup_s:.4f}, "
                             f"{host.describe()}")
    return record
