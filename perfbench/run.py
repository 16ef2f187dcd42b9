"""Benchmark of record for the RESCQ reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload fig10 --seed 0 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``fig10``    the ten laptop-scale Figure 10 circuits, greedy, autobraid
               and rescq over four seeds (``simload.py``);
* ``fabric1k`` one 250-qubit clifford+Rz circuit on a fresh 1024-tile STAR
               fabric, the same schedulers over two seeds (``simload.py``);
* ``serve``    a closed loop against an in-process router plus two shards
               (``serveload.py``).

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` wraps the program's layer boundaries (``tracer.py``) and
reports the per-layer metrics, writing the recorded spans to
``.perfbench/spans-<workload>.jsonl``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Diagnostics go to standard error.

Every run is confined to one CPU, and the processes it spawns inherit that.
On a shared two-vCPU host, cross-CPU wakeups between the in-process
cluster's threads and its workers made ``serve`` latency vary twofold from
run to run; on one CPU it varies by about a tenth.  The CPU count taken
before pinning (``nproc``) still sizes the ``serve`` clients and workers.
End-to-end times and rates are scaled to a reference host speed measured
all through the run (``metrics.HostSpeed``); the unscaled values go to
standard error.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402 - the start time is taken before any import
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Module level, so the service's spawned workers (which re-import this file
# as ``__mp_main__``) can import the package too.
sys.path.insert(0, SRC)

#: The seed whose result digests are committed in ``expected.json``.
DEFAULT_SEED = 0
#: Seconds a leftover child gets to end after SIGTERM, then after SIGKILL.
REAP_TIMEOUT_S = 10.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig10", "fabric1k", "serve"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _metric_units():
    """``end_to_end`` and ``per_layer`` name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _per_layer(workload, record):
    from metrics import layer_metrics, run_accounting_error

    tracer = record["tracer"]
    totals = tracer.totals()
    metrics = layer_metrics(totals, record["ops"])
    metrics.update(record["sim"])
    metrics["cluster.router_overhead_ms"] = record.get(
        "router_overhead_ms", 0.0)
    metrics["cluster.retried"] = record.get("retried", 0)
    metrics["service.dedup_ratio"] = record.get("dedup_ratio", 0.0)
    metrics["trace.overhead_frac"] = record["overhead"]
    error = run_accounting_error(totals)
    if error > 1e-6 * max(totals["run_s"], 1.0):
        record["failures"].append(
            f"span self times miss {error:.6f}s of Scheduler.run time")
    path = os.path.join(ROOT, ".perfbench", f"spans-{workload}.jsonl")
    kept = tracer.dump(path)
    print(f"[perfbench] wrote {kept} spans to {path}", file=sys.stderr)
    return metrics


def _child_pids():
    """Process ids of this process's live or unreaped children (Linux)."""
    pids = set()
    task_dir = f"/proc/{os.getpid()}/task"
    try:
        tasks = os.listdir(task_dir)
    except OSError:
        return pids
    for task in tasks:
        try:
            with open(os.path.join(task_dir, task, "children"),
                      encoding="ascii") as fh:
                pids.update(int(pid) for pid in fh.read().split())
        except OSError:
            pass
    return pids


def _reap_children():
    """Stop every process this run started and wait until each has ended.

    multiprocessing's exit handler is run first: it releases the service's
    queues and semaphores and terminates and joins its daemon workers.  Then
    multiprocessing's resource tracker, which would otherwise outlive this
    process, is told to exit and waited for.  Any other child left is sent
    SIGTERM, then SIGKILL, and reaped.
    """
    from multiprocessing import resource_tracker, util

    util._exit_function()
    resource_tracker._resource_tracker._stop()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        deadline = time.monotonic() + REAP_TIMEOUT_S
        for pid in _child_pids():
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        while _child_pids() and time.monotonic() < deadline:
            for pid in _child_pids():
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass
            time.sleep(0.01)
    if _child_pids():
        print(f"[perfbench] could not reap children {sorted(_child_pids())}",
              file=sys.stderr)


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return _main(argv)
    finally:
        _reap_children()


def _main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"[perfbench] no repro package under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    end_to_end, per_layer = _metric_units()
    seconds, trace = args.seconds, bool(args.trace)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})

    if args.workload == "serve":
        import serveload
        import_s = time.perf_counter() - START
        record = serveload.run(args.seed, seconds, trace, import_s,
                               nproc=len(cpus),
                               work_dir=os.path.join(ROOT, ".perfbench"))
    else:
        import simload
        import_s = time.perf_counter() - START
        expected = None
        if args.seed == DEFAULT_SEED:
            with open(os.path.join(os.path.dirname(__file__),
                                   "expected.json"), encoding="utf-8") as fh:
                expected = json.load(fh)[args.workload]
        record = simload.run(args.workload, args.seed, seconds, trace,
                             import_s, expected)
        print(f"[perfbench] {args.workload} seed {args.seed} digest "
              f"{record['digest']}", file=sys.stderr)

    if trace:
        metrics = _per_layer(args.workload, record)
    else:
        print(f"[perfbench] {record['diagnostics']}", file=sys.stderr)
        metrics = record["metrics"]
    units = per_layer if trace else end_to_end
    if set(metrics) != set(units):
        raise SystemExit(f"[perfbench] metric set mismatch: missing "
                         f"{sorted(set(units) - set(metrics))}, extra "
                         f"{sorted(set(metrics) - set(units))}")
    for failure in record["failures"]:
        print(f"[perfbench] FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not record["failures"] and record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
