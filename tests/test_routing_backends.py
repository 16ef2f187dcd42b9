"""Routing-backend equivalence: python, vector (and numba when installed).

The vectorised struct-of-arrays routing core (ISSUE 8) must be a pure
performance change: every backend produces byte-identical schedules.  These
tests pin that from three angles — raw shortest-path queries, the FlatGrid
array representation, and whole scheduler runs over random
scenario-generator circuits.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SimulationConfig
from repro.analysis.export import result_to_dict
from repro.fabric import StarVariant, compress_layout, star_layout
from repro.fabric.flat import FlatGrid
from repro.kernel.fabric_state import FabricState
from repro.lattice import (
    ROUTING_BACKEND_NAMES,
    bfs_ancilla_path,
    get_backend,
    numba_available,
)
from repro.lattice.backends import NumbaBackend, VectorBackend
from repro.scheduling import SCHEDULER_REGISTRY
from repro.sim.runner import default_layout
from repro.workloads.scenarios import clifford_rz_circuit


# ---------------------------------------------------------------------------
# FlatGrid: the struct-of-arrays layout projection
# ---------------------------------------------------------------------------

class TestFlatGrid:
    def test_neighbor_table_matches_layout_adjacency(self):
        layout = star_layout(6, StarVariant.STAR)
        flat = FlatGrid.for_layout(layout)
        for position in layout.ancilla_positions():
            index = flat.flat_index(position)
            neighbors = {flat._positions[n]
                         for n in flat.route_neighbors[index] if n >= 0}
            expected = set(layout.ancilla_neighbors(position))
            assert neighbors == expected

    def test_flat_index_position_round_trip(self):
        layout = star_layout(4, StarVariant.STAR)
        flat = FlatGrid.for_layout(layout)
        for position in layout.ancilla_positions():
            assert flat.position(flat.flat_index(position)) == position

    def test_for_layout_is_cached_until_version_bump(self):
        layout = star_layout(4, StarVariant.STAR)
        flat = FlatGrid.for_layout(layout)
        assert FlatGrid.for_layout(layout) is flat
        victim = layout.ancilla_positions()[0]
        layout.disable(victim)
        rebuilt = FlatGrid.for_layout(layout)
        assert rebuilt is not flat
        assert rebuilt.flat_index(victim) == -1 or \
            rebuilt.anc_slot[rebuilt.flat_index(victim)] == -1

    def test_route_adjacency_is_the_neighbor_table_as_tuples(self):
        layout = star_layout(6, StarVariant.STAR)
        flat = FlatGrid.for_layout(layout)
        for index, row in enumerate(flat.route_neighbors.tolist()):
            if flat.ancilla_mask[index]:
                assert flat.route_adjacency[index] == tuple(n for n in row
                                                            if n >= 0)
            else:
                assert flat.route_adjacency[index] is None

    def test_route_adjacency_is_rebuilt_with_the_layout_version(self):
        layout = star_layout(6, StarVariant.STAR)
        original = FlatGrid.for_layout(layout).route_adjacency
        victim = layout.ancilla_positions()[7]
        layout.disable(victim)
        disabled = FlatGrid.for_layout(layout)
        victim_flat = disabled.flat_index(victim)
        assert disabled.route_adjacency is not original
        assert disabled.route_adjacency[victim_flat] is None
        assert all(victim_flat not in row
                   for row in disabled.route_adjacency if row is not None)
        layout.enable_ancilla(victim)
        enabled = FlatGrid.for_layout(layout)
        assert enabled.route_adjacency is not disabled.route_adjacency
        assert enabled.route_adjacency == original

    def test_ancilla_slots_are_row_major(self):
        layout = star_layout(5, StarVariant.STAR)
        flat = FlatGrid.for_layout(layout)
        assert flat.anc_positions == sorted(flat.anc_positions)
        assert flat.anc_positions == layout.ancilla_positions()


# ---------------------------------------------------------------------------
# Shortest-path parity: vector backend vs the reference BFS
# ---------------------------------------------------------------------------

class TestShortestPathParity:
    @pytest.fixture()
    def layout(self):
        return star_layout(8, StarVariant.STAR)

    def test_all_pairs_match_reference(self, layout):
        backend = get_backend("vector")
        ancillas = layout.ancilla_positions()
        rng = np.random.default_rng(3)
        pairs = rng.integers(0, len(ancillas), size=(80, 2))
        for a_idx, b_idx in pairs:
            start, goal = ancillas[a_idx], ancillas[b_idx]
            expected = bfs_ancilla_path(layout, start, goal)
            actual = backend.shortest_path(layout, start, goal)
            assert actual == expected

    def test_blocked_tiles_match_reference(self, layout):
        backend = get_backend("vector")
        ancillas = layout.ancilla_positions()
        rng = np.random.default_rng(5)
        for _ in range(40):
            blocked = {ancillas[i] for i in
                       rng.choice(len(ancillas), size=6, replace=False)}
            start, goal = (ancillas[int(i)] for i in
                           rng.integers(0, len(ancillas), size=2))
            expected = bfs_ancilla_path(layout, start, goal, blocked)
            actual = backend.shortest_path(layout, start, goal, blocked)
            assert actual == expected

    def test_non_ancilla_endpoints_return_none(self, layout):
        backend = get_backend("vector")
        data = layout.data_position(0)
        ancilla = layout.ancilla_positions()[0]
        assert backend.shortest_path(layout, data, ancilla) is None
        assert bfs_ancilla_path(layout, data, ancilla) is None

    def test_survives_layout_mutation(self, layout):
        backend = get_backend("vector")
        ancillas = layout.ancilla_positions()
        start, goal = ancillas[0], ancillas[-1]
        before = backend.shortest_path(layout, start, goal)
        assert before == bfs_ancilla_path(layout, start, goal)
        victim = before[len(before) // 2]
        layout.disable(victim)
        backend.invalidate()
        after = backend.shortest_path(layout, start, goal)
        assert after == bfs_ancilla_path(layout, start, goal)
        assert victim not in (after or ())


# ---------------------------------------------------------------------------
# Exactness at fabric scale: the 1024-tile fabric1k layout
# ---------------------------------------------------------------------------

def _reference_tree(layout, start):
    """Full parent map of the object-graph FIFO BFS (no early stop)."""
    parents = {start: start}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for neighbor in layout.neighbors(current):
            if neighbor in parents or not layout.is_ancilla(neighbor):
                continue
            parents[neighbor] = current
            queue.append(neighbor)
    return parents


def _fabric1k_layout():
    """The 32x32 STAR fabric of perfbench's ``fabric1k`` workload."""
    return default_layout(clifford_rz_circuit(n=250, depth=20, seed=0))


def _assert_trees_and_paths_match(layout, seed, sources=6, goals=20):
    backend = get_backend("vector")
    flat = FlatGrid.for_layout(layout)
    ancillas = layout.ancilla_positions()
    rng = np.random.default_rng(seed)
    for source_index in rng.choice(len(ancillas), size=sources,
                                   replace=False):
        source = ancillas[source_index]
        for goal_index in rng.integers(0, len(ancillas), size=goals):
            goal = ancillas[goal_index]
            assert (backend.shortest_path(layout, source, goal)
                    == bfs_ancilla_path(layout, source, goal))
        tree = backend._parents_for(flat, flat.flat_index(source))
        assert backend._parents_for(flat, flat.flat_index(source)) is tree
        reached = {flat.position(index): flat.position(parent)
                   for index, parent in enumerate(tree) if parent >= 0}
        assert reached == _reference_tree(layout, source)


class TestExactnessAtScale:
    def test_fabric1k_trees_and_paths_match_reference(self):
        layout = _fabric1k_layout()
        assert layout.rows * layout.cols == 1024
        _assert_trees_and_paths_match(layout, seed=11)

    def test_compressed_layout_matches_reference(self):
        layout, _report = compress_layout(_fabric1k_layout(), 0.5, seed=4)
        assert layout.num_ancilla < _fabric1k_layout().num_ancilla
        _assert_trees_and_paths_match(layout, seed=12)

    def test_disable_enable_cycle_matches_reference(self):
        layout = _fabric1k_layout()
        backend = get_backend("vector")
        ancillas = layout.ancilla_positions()
        start, goal = ancillas[0], ancillas[-1]
        before = backend.shortest_path(layout, start, goal)
        assert before == bfs_ancilla_path(layout, start, goal)
        victim = before[len(before) // 2]
        # No explicit invalidate(): a new layout revision alone must
        # retire the memoised trees.
        layout.disable(victim)
        detour = backend.shortest_path(layout, start, goal)
        assert detour == bfs_ancilla_path(layout, start, goal)
        assert victim not in detour
        layout.enable_ancilla(victim)
        assert backend.shortest_path(layout, start, goal) == before
        _assert_trees_and_paths_match(layout, seed=13, sources=3)

    def test_blocked_queries_stop_early_and_match_reference(self):
        layout = _fabric1k_layout()
        backend = get_backend("vector")
        flat = FlatGrid.for_layout(layout)
        ancillas = layout.ancilla_positions()
        rng = np.random.default_rng(14)
        for _ in range(40):
            blocked = {ancillas[i] for i in
                       rng.choice(len(ancillas), size=60, replace=False)}
            blocked.add((-1, 0))  # off-grid entries are ignored
            blocked.add(layout.data_position(0))
            start, goal = (ancillas[int(i)] for i in
                           rng.integers(0, len(ancillas), size=2))
            assert (backend.shortest_path(layout, start, goal, blocked)
                    == bfs_ancilla_path(layout, start, goal, blocked))
        # Walling the goal in makes it unreachable.
        start, goal = ancillas[0], ancillas[len(ancillas) // 2]
        walls = set(layout.ancilla_neighbors(goal))
        assert backend.shortest_path(layout, start, goal, walls) is None
        assert bfs_ancilla_path(layout, start, goal, walls) is None
        # A near goal is answered before the whole fabric is claimed.
        start_flat = flat.flat_index(start)
        near = flat.route_adjacency[start_flat][0]
        stopped = backend._compute_parents(flat, start_flat, (), near)
        full = backend._compute_parents(flat, start_flat, (), -1)
        assert stopped[near] == full[near] == start_flat
        assert (sum(parent >= 0 for parent in stopped)
                < sum(parent >= 0 for parent in full))


# ---------------------------------------------------------------------------
# Backend registry
# ---------------------------------------------------------------------------

class TestBackendRegistry:
    def test_known_names(self):
        assert ROUTING_BACKEND_NAMES == ("python", "vector", "numba")
        for name in ("python", "vector"):
            assert get_backend(name).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown routing backend"):
            get_backend("fortran")

    def test_config_validates_backend(self):
        with pytest.raises(ValueError, match="routing_backend"):
            SimulationConfig(routing_backend="fortran")

    @pytest.mark.skipif(numba_available(), reason="numba installed: the "
                        "missing-dependency error path cannot be exercised")
    def test_numba_backend_without_numba_raises_actionably(self):
        layout = star_layout(3, StarVariant.STAR)
        a, b = layout.ancilla_positions()[:2]
        with pytest.raises(RuntimeError, match=r"repro\[numba\]"):
            backend = get_backend("numba")
            backend.shortest_path(layout, a, b)

    @pytest.mark.skipif(not numba_available(), reason="numba not installed")
    def test_numba_backend_matches_reference(self):
        layout = star_layout(6, StarVariant.STAR)
        backend = get_backend("numba")
        ancillas = layout.ancilla_positions()
        rng = np.random.default_rng(9)
        for _ in range(30):
            start, goal = (ancillas[int(i)] for i in
                           rng.integers(0, len(ancillas), size=2))
            assert (backend.shortest_path(layout, start, goal)
                    == bfs_ancilla_path(layout, start, goal))


    def test_numba_glue_with_a_stand_in_kernel(self):
        """The numba backend's python side (blocked mask, list conversion,
        path reconstruction) with an uncompiled stand-in for its kernel."""
        def kernel(neighbor_table, source, blocked_mask, goal):
            parents = np.full(neighbor_table.shape[0], -1, dtype=np.int32)
            parents[source] = source
            queue = deque([int(source)])
            while queue:
                current = queue.popleft()
                for neighbor in neighbor_table[current]:
                    if neighbor < 0 or parents[neighbor] >= 0:
                        continue
                    if blocked_mask.size and blocked_mask[neighbor]:
                        continue
                    parents[neighbor] = current
                    if neighbor == goal:
                        return parents
                    queue.append(int(neighbor))
            return parents

        backend = NumbaBackend.__new__(NumbaBackend)
        VectorBackend.__init__(backend)
        backend._kernel = kernel
        layout = star_layout(6, StarVariant.STAR)
        ancillas = layout.ancilla_positions()
        rng = np.random.default_rng(10)
        for _ in range(30):
            blocked = {ancillas[i] for i in
                       rng.choice(len(ancillas), size=5, replace=False)}
            start, goal = (ancillas[int(i)] for i in
                           rng.integers(0, len(ancillas), size=2))
            assert (backend.shortest_path(layout, start, goal)
                    == bfs_ancilla_path(layout, start, goal))
            assert (backend.shortest_path(layout, start, goal, blocked)
                    == bfs_ancilla_path(layout, start, goal, blocked))
        for tree in backend._parent_trees.values():
            assert type(tree) is tuple
            assert all(type(parent) is int for parent in tree)


# ---------------------------------------------------------------------------
# FabricState array views
# ---------------------------------------------------------------------------

class TestFabricStateViews:
    def test_views_mirror_dict_state(self):
        layout = star_layout(4, StarVariant.STAR)
        fabric = FabricState(layout, 4, activity_window=100)
        ancillas = fabric.ancillas
        fabric.occupy_ancilla(ancillas[2], 0, 17)
        fabric.hold(ancillas[3], 42)
        fabric.occupy_data(1, 0, 9)
        free = fabric.anc_free_view()
        holding = fabric.anc_holding_view()
        assert free[2] == 17 and free[0] == 0
        assert holding[3] == 42 and holding[0] == -1
        idle = fabric.anc_idle_mask(now=5)
        assert not idle[2] and idle[0]
        assert fabric.data_free_view()[1] == 9
        assert fabric.flat_grid.anc_positions == ancillas


# ---------------------------------------------------------------------------
# Whole-run equivalence on scenario-generator circuits (hypothesis)
# ---------------------------------------------------------------------------

def _run(circuit, backend: str, seed: int):
    config = SimulationConfig(mst_period=10, mst_latency=20,
                              routing_backend=backend)
    layout = default_layout(circuit)
    scheduler = SCHEDULER_REGISTRY.create("rescq")
    return result_to_dict(scheduler.run(circuit, layout, config, seed=seed))


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(4, 10), depth=st.integers(2, 5),
       circuit_seed=st.integers(0, 1000), run_seed=st.integers(0, 3))
def test_backends_produce_identical_traces(n, depth, circuit_seed, run_seed):
    """python and vector backends yield byte-identical scheduler results."""
    circuit = clifford_rz_circuit(n, depth=depth, seed=circuit_seed)
    reference = _run(circuit, "python", run_seed)
    vectorised = _run(circuit, "vector", run_seed)
    assert vectorised == reference


def test_backends_identical_on_dense_scenario():
    """Deterministic (non-hypothesis) cross-backend check on a denser case."""
    circuit = clifford_rz_circuit(12, depth=6, cx_fraction=0.5, seed=21)
    reference = _run(circuit, "python", 1)
    vectorised = _run(circuit, "vector", 1)
    assert vectorised == reference
    if numba_available():
        assert _run(circuit, "numba", 1) == reference
