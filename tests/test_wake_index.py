"""The wake-indexed scheduling pass against the historical full sweep.

:class:`FullSweepRescqPolicy` keeps the pass RESCQ ran before the wake
index: every sweep visits every live task in seniority order, and the task
frontier is rebuilt from the whole ready set.  It exists only here, as the
oracle: the wake-indexed :class:`~repro.scheduling.rescq.RescqPolicy` must
produce the same canonical result bytes on every scenario, seed and
ablation switch.

The module also pins the exact helpers the pass relies on: the list-based
MST path queries (against networkx) and the per-queue pending-cost cache
(against a fresh in-order summation).
"""

from __future__ import annotations

import random
from datetime import timedelta

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro import SimulationConfig, default_layout
from repro.analysis.export import result_to_dict
from repro.canonical import canonical_dumps
from repro.fabric import StarVariant, compress_layout, star_layout
from repro.kernel import SimulationKernel
from repro.scheduling import AncillaMst, RescqScheduler
from repro.scheduling.queues import AncillaQueue, AncillaRole, QueueEntry
from repro.scheduling.rescq import RescqPolicy, _CnotTask, _RzTask
from repro.workloads.scenarios import build_scenario, scenario_name


class FullSweepRescqPolicy(RescqPolicy):
    """RESCQ with the historical scheduling pass (tests-only oracle)."""

    def schedule_pass(self) -> None:
        traces = self.lifecycle.traces
        tasks = self.tasks
        while True:
            completed_before = len(traces)
            if self._released:
                self._released = []
                for index in self.lifecycle.ready_by_priority():
                    task = tasks.get(index)
                    if task is None:
                        self._create_task(index, released=True)
                    elif isinstance(task, _RzTask) and not task.released:
                        task.released = True
                        task.release_cycle = self.lifecycle.release_cycle.get(
                            index, self.clock.now)
            # ``tasks`` is in creation order; tasks created mid-sweep (by
            # lookahead preparation) wait for the next sweep.
            for task in list(tasks.values()):
                if isinstance(task, _RzTask):
                    if not task.done:
                        self._advance_rz(task)
                elif isinstance(task, _CnotTask):
                    if not task.started:
                        self._try_start_cnot(task)
                elif not task.started:
                    self._try_start_hadamard(task)
            if len(traces) == completed_before:
                break
        # The oracle never reads the wake index; keep it from growing.
        self._pending.clear()
        self._timed.clear()


def run_policy(policy_cls, circuit, layout, config, sim_seed,
               lookahead=True) -> str:
    """Canonical result bytes of one RESCQ run under ``policy_cls``."""
    prepared = RescqScheduler.prepare_circuit(circuit)
    prepared.name = circuit.name
    kernel = SimulationKernel(prepared, layout, config, sim_seed,
                              scheduler_name="rescq", benchmark=circuit.name,
                              activity_window=config.activity_window)
    policy = policy_cls(kernel, lookahead_preparation=lookahead)
    return canonical_dumps(result_to_dict(kernel.run_event_driven(policy)))


def assert_same_bytes(circuit, config, sim_seed, lookahead,
                      compression=0.0):
    layout = default_layout(circuit, compression=compression)
    woken = run_policy(RescqPolicy, circuit, layout, config, sim_seed,
                       lookahead)
    full = run_policy(FullSweepRescqPolicy, circuit, layout, config,
                      sim_seed, lookahead)
    assert woken == full


#: Small instances of every scenario family (congestion needs n >= 4).
_SCENARIO = st.one_of(
    st.builds(lambda n, depth, gen: scenario_name(
                  "clifford_rz", n=n, depth=depth, seed=gen),
              st.integers(2, 8), st.integers(1, 10), st.integers(0, 1000)),
    st.builds(lambda n, depth, gen: scenario_name(
                  "clifford_t", n=n, depth=depth, seed=gen),
              st.integers(2, 8), st.integers(1, 10), st.integers(0, 1000)),
    st.builds(lambda n, layers, gen: scenario_name(
                  "congestion", n=n, layers=layers, seed=gen),
              st.integers(4, 8), st.integers(1, 3), st.integers(0, 1000)),
)


class TestWakeIndexMatchesFullSweep:
    """Property ``wake_index_matches_full_sweep``."""

    @seed(20251017)
    @settings(max_examples=30, deadline=timedelta(seconds=10),
              suppress_health_check=[HealthCheck.too_slow])
    @given(name=_SCENARIO, sim_seed=st.integers(0, 10 ** 6),
           compression=st.sampled_from([0.0, 0.5]),
           fan_out=st.integers(1, 4), distance=st.sampled_from([5, 7]),
           error_rate=st.sampled_from([1e-4, 5e-4]),
           parallel=st.booleans(), eager=st.booleans(), mst=st.booleans(),
           lookahead=st.booleans())
    def test_wake_index_matches_full_sweep(self, name, sim_seed, compression,
                                           fan_out, distance, error_rate,
                                           parallel, eager, mst, lookahead):
        config = SimulationConfig(distance=distance,
                                  physical_error_rate=error_rate,
                                  mst_period=50, mst_latency=0,
                                  max_parallel_preparations=fan_out,
                                  parallel_preparation=parallel,
                                  eager_correction_prep=eager,
                                  use_mst_routing=mst)
        assert_same_bytes(build_scenario(name), config, sim_seed, lookahead,
                          compression=compression)

    # Rare wakes found by a wider random search.  Each case fails when one
    # wake rule is dropped: the "woken ahead of the cursor means this
    # sweep" rule (first), the timed wake at a busy candidate this Rz heads
    # (second), the timed wake at a busy tile a CNOT heads (third, which
    # then deadlocks).
    @pytest.mark.parametrize("name,sim_seed,compression,lookahead,config", [
        ("scenario:clifford_rz:depth=15,n=5,seed=7092", 860241, 0.5, False,
         dict(mst_period=50, mst_latency=0, max_parallel_preparations=4,
              eager_correction_prep=False)),
        ("scenario:clifford_rz:depth=7,n=13,seed=3840", 548753, 0.5, True,
         dict(distance=5, physical_error_rate=5e-4, mst_period=50,
              mst_latency=0, max_parallel_preparations=3,
              eager_correction_prep=False)),
        ("scenario:clifford_rz:depth=16,n=13,rz_density=1.0,seed=7126",
         848139, 0.2, True,
         dict(distance=9, mst_period=10, mst_latency=5,
              max_parallel_preparations=4, kernel_backend="python")),
    ])
    def test_rare_wakes(self, name, sim_seed, compression, lookahead,
                        config):
        assert_same_bytes(build_scenario(name), SimulationConfig(**config),
                          sim_seed, lookahead, compression=compression)

    @pytest.mark.parametrize("name", [
        "scenario:clifford_rz:n=12,depth=16,seed=3",
        "scenario:congestion:n=12,layers=4,seed=1",
    ])
    @pytest.mark.parametrize("engine", ["python", "batched"])
    def test_default_config_on_larger_scenarios(self, name, engine):
        config = SimulationConfig(kernel_backend=engine)
        assert_same_bytes(build_scenario(name), config, sim_seed=5,
                          lookahead=True)

    def test_compressed_layout(self):
        config = SimulationConfig(mst_period=10, mst_latency=20)
        circuit = build_scenario("scenario:clifford_rz:n=9,depth=12,seed=4")
        assert_same_bytes(circuit, config, sim_seed=2, lookahead=True,
                          compression=0.3)


class TestWakeProfileCounters:
    def test_profiled_runs_count_visits_and_wakes(self):
        circuit = build_scenario("scenario:clifford_rz:n=8,depth=10,seed=2")
        layout = default_layout(circuit)
        config = SimulationConfig(mst_period=10, mst_latency=20)
        plain = RescqScheduler().run(circuit, layout, config, seed=1)
        traced = RescqScheduler().run(
            circuit, layout, config.with_updates(profile_enabled=True), seed=1)
        assert "task_visits" not in plain.profile
        assert (canonical_dumps(result_to_dict(plain))
                == canonical_dumps(result_to_dict(traced)))
        visits = traced.profile["task_visits"]
        # Each visited task was created and started at least once, and every
        # visit is delivered by exactly one wake.
        assert visits >= len(traced.traces)
        assert traced.profile["tasks_woken"] >= visits


def _activity_maps(layout, rng):
    positions = layout.ancilla_positions()
    yield {}
    yield {position: rng.random() for position in positions}
    # Coarse values force many equal weights (stable-sort tie-breaks).
    yield {position: float(rng.randrange(3)) for position in positions}


class TestMstPathMatchesNetworkx:
    """``AncillaMst.path`` (LCA walks over lists) is the tree's unique path."""

    @staticmethod
    def check(layout, activity, rng, pairs=40):
        mst = AncillaMst(layout, activity)
        positions = layout.ancilla_positions()
        for _ in range(pairs):
            start, goal = rng.choice(positions), rng.choice(positions)
            try:
                expected = nx.shortest_path(mst.tree, start, goal)
            except nx.NetworkXNoPath:
                expected = None
            assert mst.path(start, goal) == expected

    @seed(7)
    @settings(max_examples=20, deadline=timedelta(seconds=5))
    @given(num_qubits=st.integers(2, 16), rng_seed=st.integers(0, 10 ** 6))
    def test_star_layouts(self, num_qubits, rng_seed):
        rng = random.Random(rng_seed)
        layout = star_layout(num_qubits, StarVariant.STAR)
        for activity in _activity_maps(layout, rng):
            self.check(layout, activity, rng)

    def test_compressed_layout(self):
        rng = random.Random(11)
        layout, _report = compress_layout(
            star_layout(12, StarVariant.STAR), 0.5, seed=3)
        for activity in _activity_maps(layout, rng):
            self.check(layout, activity, rng)

    def test_layout_with_disabled_tiles(self):
        rng = random.Random(5)
        layout = star_layout(9, StarVariant.STAR)
        for position in rng.sample(layout.ancilla_positions(), 6):
            layout.disable(position)
        for activity in _activity_maps(layout, rng):
            self.check(layout, activity, rng, pairs=80)


class TestPendingCostCache:
    @seed(3)
    @settings(max_examples=50, deadline=timedelta(seconds=1))
    @given(st.lists(st.tuples(st.sampled_from(["add", "remove", "pop"]),
                              st.integers(0, 5),
                              st.sampled_from([3.7142857, 2, 1, 0.1])),
                    max_size=40))
    def test_cache_equals_fresh_in_order_sum(self, operations):
        queue = AncillaQueue((0, 0))
        for action, gate, cost in operations:
            if action == "add":
                queue.enqueue(QueueEntry(gate, "rz", (0,),
                                         AncillaRole.PREPARE, cost=cost))
            elif action == "remove":
                queue.remove_gate(gate)
            elif queue.entries:
                queue.pop_head()
            fresh = 0.0
            for entry in queue.entries:
                fresh += entry.cost
            assert queue.pending_cost == fresh
