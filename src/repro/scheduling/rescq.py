"""RESCQ: the realtime scheduler (Section 4).

RESCQ drives an event-driven symbolic execution of the program.  Its defining
mechanisms, all implemented here, are:

* **per-qubit ASAP release** — a gate may start as soon as the previous gate
  on each of its operand qubits completes; there is no layer barrier
  (Section 3.1);
* **per-ancilla queues** (Table 2) — every gate is enqueued on the ancillas
  that could serve it; seniority in the queue arbitrates contention;
* **parallel preparation** — an Rz gate's |m_theta> is attempted on several
  neighbouring ancillas at once; the first success is used and the rest are
  discarded or retargeted (Figure 1e);
* **eager correction preparation** — as soon as one preparation succeeds (and
  during the injection itself), the remaining candidate ancillas switch to
  preparing the |m_{2 theta}> fixup in place (Section 4.1);
* **lookahead preparation** — the Rz following the gate currently executing
  on a qubit is enqueued preemptively so its state can be prepared while the
  data qubit is still busy;
* **activity-weighted MST routing** (Section 4.2) — CNOT paths are chosen on
  the latest *available* minimum spanning tree of ancilla activity, which is
  recomputed asynchronously every ``k`` cycles and becomes available
  ``tau_mst`` cycles later (Figure 8).

Since the kernel extraction, this module implements only the *policy*: task
state machines, release rules, queue arbitration and plan choice.  Simulated
time, the event queue, fabric occupancy, gate releases/retirement and result
assembly are the shared :class:`~repro.kernel.SimulationKernel`; preparation
latencies are drawn in vectorised batches through
:meth:`~repro.rus.preparation.PreparationModel.sample_cycles_batch` (which is
stream-equivalent to the historical scalar draws, so traces are unchanged).

The ablation switches in :class:`~repro.sim.config.SimulationConfig`
(``parallel_preparation``, ``eager_correction_prep``, ``use_mst_routing``)
turn the corresponding mechanism off so its contribution can be measured.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Tuple

from ..circuits import Circuit, Gate
from ..fabric import Edge, GridLayout, Position
from ..kernel import EventDrivenPolicy, SimulationKernel, profile_timer
from ..lattice import RoutePlan
from ..sim.config import SimulationConfig
from ..sim.results import GateTrace, SimulationResult
from .base import Scheduler, gate_kind
from .mst import AsyncMstPipeline
from .queues import (AncillaQueue, AncillaRole, AncillaStatus, QueueEntry,
                     QueueSet)

__all__ = ["RescqScheduler", "RescqPolicy"]


# ---------------------------------------------------------------------------
# Task state machines
# ---------------------------------------------------------------------------

class _Task:
    """Wake-index bookkeeping shared by every task kind, set when
    :meth:`RescqPolicy._create_task` registers the task:

    * ``seq`` — seniority: creation order, the order a sweep visits tasks in;
    * ``woken`` — True while the task waits in the wake index for a visit;
    * ``wake_at`` — cycle of its earliest pending timed wake (0: none).

    ``__slots__`` classes, not dataclasses: task fields are the most-touched
    state in every scheduling pass, and slot access is measurably cheaper on
    the supported Pythons.
    """

    __slots__ = ("seq", "woken", "wake_at")


class _RzTask(_Task):
    """Rz gate state machine."""

    __slots__ = ("gate_index", "qubit", "theta", "limit", "candidates",
                 "attachment", "queues", "released", "release_cycle", "level",
                 "preparing", "holding", "injecting", "first_start",
                 "prep_attempts", "injections", "done")

    def __init__(self, gate_index: int, qubit: int, theta: float, limit: int,
                 candidates: List[Position],
                 attachment: Dict[Position, object],
                 queues: List["AncillaQueue"], released: bool,
                 release_cycle: Optional[int] = None) -> None:
        self.gate_index = gate_index
        self.qubit = qubit
        self.theta = theta
        self.limit = limit
        self.candidates = candidates
        #: 'Z' / 'X' for edge-adjacent candidates, or the routing ancilla
        #: position for diagonal candidates.
        self.attachment = attachment
        #: The candidates' ancilla queues, aligned with ``candidates`` —
        #: resolved once at creation so passes skip the per-position lookup.
        self.queues = queues
        self.released = released
        self.release_cycle = release_cycle
        self.level = 0
        #: ancilla -> [finish_cycle, level] for in-flight preparations.
        self.preparing: Dict[Position, List[int]] = {}
        #: ancilla -> level of the |m_theta> state it is holding.
        self.holding: Dict[Position, int] = {}
        self.injecting = False
        self.first_start: Optional[int] = None
        self.prep_attempts = 0
        self.injections = 0
        self.done = False


class _CnotTask(_Task):
    __slots__ = ("gate_index", "control", "target", "plan", "queues",
                 "release_cycle", "started", "start_cycle")

    def __init__(self, gate_index: int, control: int, target: int,
                 plan: RoutePlan, queues: List["AncillaQueue"],
                 release_cycle: int) -> None:
        self.gate_index = gate_index
        self.control = control
        self.target = target
        self.plan = plan
        #: Queues of ``plan.ancillas_used``, aligned — resolved once.
        self.queues = queues
        self.release_cycle = release_cycle
        self.started = False
        self.start_cycle: Optional[int] = None


class _HTask(_Task):
    __slots__ = ("gate_index", "qubit", "ancilla", "release_cycle", "started",
                 "start_cycle")

    def __init__(self, gate_index: int, qubit: int, ancilla: Position,
                 release_cycle: int) -> None:
        self.gate_index = gate_index
        self.qubit = qubit
        self.ancilla = ancilla
        self.release_cycle = release_cycle
        self.started = False
        self.start_cycle: Optional[int] = None


class _EftMemo(dict):
    """Expected free time per tile, computed on first lookup.

    Plan choice scores each candidate path as ``max(map(memo.__getitem__,
    path))``: hits stay in C, and a miss calls ``eft`` once per tile.
    """

    __slots__ = ("eft",)

    def __init__(self, eft) -> None:
        super().__init__()
        self.eft = eft

    def __missing__(self, position: Position) -> float:
        value = self[position] = self.eft(position)
        return value


# ---------------------------------------------------------------------------
# The RESCQ policy on the event-driven kernel
# ---------------------------------------------------------------------------

class RescqPolicy(EventDrivenPolicy):
    """One seeded RESCQ execution of a circuit, as a kernel policy."""

    def __init__(self, kernel: SimulationKernel,
                 lookahead_preparation: bool = True) -> None:
        self.kernel = kernel
        self.circuit = kernel.circuit
        self.layout = kernel.layout
        self.config = kernel.config
        self.costs = kernel.config.costs
        self.lookahead_preparation = lookahead_preparation
        self.rng = kernel.rng
        self.prep_model = kernel.config.preparation_model()

        self.clock = kernel.clock
        self.fabric = kernel.fabric
        self.lifecycle = kernel.lifecycle
        self.routing = kernel.routing
        self.profile = kernel.profile
        self.orientation = self.fabric.orientation

        self.queues = QueueSet(self.fabric.ancillas)
        self.mst: Optional[AsyncMstPipeline] = None
        if self.config.use_mst_routing:
            self.mst = AsyncMstPipeline(self.layout, self.config.mst_period,
                                        self.config.mst_latency)

        #: Live tasks by gate index, in creation (seniority) order.
        self.tasks: Dict[int, _Task] = {}
        #: Released gates that have no task yet: the initial frontier, then
        #: whatever each retirement releases (see :meth:`_finish_gate`).
        self._released: List[int] = list(self.lifecycle.dag.ready)
        #: Queue cost of a pending entry by gate kind (the ``QueueEntry.cost``
        #: that :meth:`_expected_free_time` sums).  ``expected_cycles()`` is a
        #: pure function of the preparation model, so the same float is
        #: produced every call.
        self._entry_costs = {"rz": self.prep_model.expected_cycles() + 1.0,
                             "cnot": self.costs.cnot_cycles,
                             "h": self.costs.hadamard_cycles}

        # The wake index (see :meth:`schedule_pass`), keyed by seniority.
        self._next_seq = 1
        #: Live tasks by seniority.
        self._live: Dict[int, _Task] = {}
        #: Seniorities woken for the next sweep.
        self._pending: List[int] = []
        #: Seniority heap of the sweep in progress.
        self._sweep_heap: List[int] = []
        #: Seniority of the task being visited, and the first seniority
        #: created after the sweep began; both 0 between sweeps.
        self._cursor = 0
        self._bound = 0
        #: ``(cycle, seq)`` heap of timed wakes.
        self._timed: List[Tuple[int, int]] = []
        #: Wake count, and how much of it the profile has been told about.
        self._wakes = 0
        self._wakes_reported = 0

        # next gate on each qubit after a given gate (for lookahead prep).
        self._next_on_qubit: Dict[Tuple[int, int], int] = {}
        last_seen: Dict[int, int] = {}
        for index in self.lifecycle.dag.nodes:
            for qubit in self.circuit[index].qubits:
                if qubit in last_seen:
                    self._next_on_qubit[(last_seen[qubit], qubit)] = index
                last_seen[qubit] = index

        #: (qubit, flipped) -> (candidates, attachment); the fan-out geometry
        #: of Figure 7 is a pure function of layout + orientation, so repeated
        #: Rz gates on the same qubit reuse it.
        self._rz_candidate_cache: Dict[Tuple[int, bool],
                                       Tuple[List[Position],
                                             Dict[Position, object]]] = {}

    # -- kernel hooks ------------------------------------------------------------

    def on_start(self) -> None:
        self._tick_mst()

    def on_advance(self) -> None:
        self._tick_mst()

    def handle_event(self, tag: str, payload: tuple) -> None:
        if tag == "prep":
            self._on_prep_done(*payload)
        elif tag == "inject":
            self._on_injection_done(*payload)
        elif tag == "cnot":
            self._on_cnot_done(*payload)
        elif tag == "h":
            self._on_hadamard_done(*payload)

    def handle_event_batch(self, tag: str, payloads: list) -> None:
        """Batched dispatch from the bucketed event engines.

        Each override is stream-equivalent to the scalar loop the reference
        engine drives (the golden suite pins this under every engine):

        * ``inject`` — the outcome draws batch into one vectorised RNG call
          (:func:`numpy.random.Generator.random` consumes the bit stream
          exactly like successive scalar draws, the same property
          ``sample_cycles_batch`` relies on);
        * ``cnot`` / ``h`` — per-event side effects stay in event order, but
          the whole run retires through one
          :meth:`~repro.kernel.lifecycle.GateLifecycle.retire_many` call;
        * ``prep`` — scalar loop: eager retargeting means one prep event can
          re-level another in-flight preparation of the same gate, so the
          handlers must interleave exactly as the reference engine does.
        """
        if tag == "inject":
            self._on_injections_done(payloads)
        elif tag == "cnot":
            self._on_cnots_done(payloads)
        elif tag == "h":
            self._on_hadamards_done(payloads)
        else:
            for payload in payloads:
                self._on_prep_done(*payload)

    def result_metadata(self) -> Dict[str, float]:
        return {
            "mst_computations": float(self.mst.computations_completed
                                      if self.mst else 0),
        }

    # -- MST pipeline ------------------------------------------------------------

    def _tick_mst(self) -> None:
        if self.mst is None:
            return
        now = self.clock.now
        started = self.mst.computations_started
        with profile_timer(self.profile, "mst"):
            self.mst.tick(now, lambda: self.fabric.activity_snapshot(now))
        if self.profile is not None:
            self.profile.add("mst_builds",
                             float(self.mst.computations_started - started))

    # -- task creation -----------------------------------------------------------

    def _create_tasks_for_released_gates(self) -> None:
        """Create tasks for the gates released since the last call.

        Critical-path-first, like the whole frontier sorted by
        :meth:`~repro.circuits.dag.GateDependencyGraph.ready_by_priority`:
        the gates released earlier already have their tasks.
        """
        released = self._released
        self._released = []
        critical_path = self.lifecycle.dag.critical_path_length
        released.sort(key=lambda index: (-critical_path(index), index))
        for index in released:
            task = self.tasks.get(index)
            if task is None:
                self._create_task(index, released=True)
            elif isinstance(task, _RzTask) and not task.released:
                # Created early by lookahead preparation; it may inject now.
                task.released = True
                task.release_cycle = self.lifecycle.release_cycle.get(
                    index, self.clock.now)
                self._wake(task)

    def _create_task(self, index: int, released: bool) -> None:
        gate = self.circuit[index]
        kind = gate_kind(gate)
        if kind == "rz":
            task: _Task = self._create_rz_task(index, gate, released)
        elif kind == "cnot":
            task = self._create_cnot_task(index, gate)
        elif kind == "h":
            task = self._create_h_task(index, gate)
        else:  # pragma: no cover - free gates are stripped before simulation
            raise ValueError(f"unexpected gate kind {kind!r}")
        seq = task.seq = self._next_seq
        self._next_seq += 1
        self.tasks[index] = task
        self._live[seq] = task
        task.wake_at = 0
        # A new task is never ahead of the cursor: it is first visited by
        # the next sweep.
        task.woken = True
        self._wakes += 1
        self._pending.append(seq)

    def _rz_candidates(self, qubit: int) -> Tuple[List[Position], Dict[Position, object]]:
        """Candidate preparation ancillas for an Rz on ``qubit``.

        All edge-adjacent ancillas are candidates (they can inject directly);
        diagonal ancillas that touch an adjacent ancilla are added up to the
        ``max_parallel_preparations`` budget (they inject through that routing
        ancilla) — the 1/2/3-plus-routing structure of Figure 7.  Memoised per
        (qubit, orientation): treat the returned structures as read-only.
        """
        key = (qubit, self.orientation.is_flipped(qubit))
        cached = self._rz_candidate_cache.get(key)
        if cached is not None:
            return cached
        position = self.layout.data_position(qubit)
        attachment: Dict[Position, object] = {}
        adjacent: List[Position] = []
        for edge in Edge:
            neighbor = edge.neighbor(position)
            if self.layout.is_ancilla(neighbor):
                adjacent.append(neighbor)
                attachment[neighbor] = self.orientation.edge_pauli(qubit, edge)
        # Prefer Z-edge neighbours (cheapest, 1-cycle ZZ injection).
        adjacent.sort(key=lambda pos: attachment[pos] != "Z")
        if not self.config.parallel_preparation:
            chosen = adjacent[:1]
            result = (chosen, {pos: attachment[pos] for pos in chosen})
            self._rz_candidate_cache[key] = result
            return result

        candidates = list(adjacent)
        budget = max(0, self.config.max_parallel_preparations - len(candidates))
        if budget:
            row, col = position
            diagonals = [(row - 1, col - 1), (row - 1, col + 1),
                         (row + 1, col - 1), (row + 1, col + 1)]
            for diag in diagonals:
                if budget == 0:
                    break
                if not self.layout.is_ancilla(diag):
                    continue
                routers = [pos for pos in adjacent
                           if abs(pos[0] - diag[0]) + abs(pos[1] - diag[1]) == 1]
                if not routers:
                    continue
                candidates.append(diag)
                attachment[diag] = routers[0]
                budget -= 1
        result = (candidates, attachment)
        self._rz_candidate_cache[key] = result
        return result

    def _create_rz_task(self, index: int, gate: Gate, released: bool) -> _RzTask:
        qubit = gate.qubits[0]
        candidates, attachment = self._rz_candidates(qubit)
        if not candidates:
            raise RuntimeError(f"data qubit {qubit} has no ancilla neighbour")
        task = _RzTask(
            gate_index=index,
            qubit=qubit,
            theta=gate.angle if gate.angle is not None else 0.0,
            limit=self.injection_limit(gate),
            candidates=candidates,
            attachment=attachment,
            queues=[self.queues[position] for position in candidates],
            released=released,
            release_cycle=(self.lifecycle.release_cycle.get(index)
                           if released else None),
        )
        cost = self._entry_costs["rz"]
        for position in candidates:
            entry = QueueEntry(index, "rz", (qubit,), AncillaRole.PREPARE,
                               cost=cost)
            self.queues.enqueue(position, entry)
        return task

    @staticmethod
    def injection_limit(gate: Gate, max_doublings: int = 64) -> int:
        return Scheduler.injection_limit(gate, max_doublings)

    def _expected_free_time(self, position: Position) -> float:
        """Expected cycle at which ``position`` frees up (Section 4.2)."""
        fabric = self.fabric
        free = fabric.anc_free[position]
        now = self.clock.now
        base = float(free if free > now else now)
        if position in fabric.anc_holding:
            base += 1.0
        # The historical accumulation order (pending summed apart, in entry
        # order, added to base once): float addition is not associative, and
        # the golden traces pin the exact eft values.
        return base + self.queues[position].pending_cost

    def _choose_cnot_plan(self, control: int, target: int) -> RoutePlan:
        rotation_cost = self.costs.edge_rotation_cycles
        cnot_cycles = self.costs.cnot_cycles
        # Fabric state is frozen while scoring, so each tile's expected free
        # time is computed once even when candidate paths overlap.
        eft = _EftMemo(self._expected_free_time).__getitem__

        tree = self.mst.current if self.mst is not None else None
        if tree is not None:
            # Hot path: rank the candidate attachment pairs directly over the
            # memoised tree paths and materialise only the winning RoutePlan —
            # identical selection to scoring a full plan list with min()
            # (same nested iteration order, strict-< tie-breaking), without
            # constructing the ~16 losing plans.
            routing = self.routing
            routing.queries += 1
            control_candidates = routing.attachments(self.orientation,
                                                     control, "Z")
            target_candidates = routing.attachments(self.orientation,
                                                    target, "X")
            tree_path = tree.path
            best = None
            best_score: Optional[Tuple[float, int]] = None
            for control_attach, control_rotation in control_candidates:
                for target_attach, target_rotation in target_candidates:
                    path = tree_path(control_attach, target_attach)
                    if path is None:
                        continue
                    rotations = ((1 if control_rotation else 0)
                                 + (1 if target_rotation else 0))
                    score = (rotation_cost * rotations + cnot_cycles
                             + max(map(eft, path)), len(path))
                    if best_score is None or score < best_score:
                        best_score = score
                        best = (control_attach, control_rotation,
                                target_attach, target_rotation, path)
            if best is not None:
                (control_attach, control_rotation,
                 target_attach, target_rotation, path) = best
                return RoutePlan(
                    control=control,
                    target=target,
                    path=tuple(path),
                    control_rotation=control_rotation,
                    target_rotation=target_rotation,
                    rotation_ancilla_control=(control_attach
                                              if control_rotation else None),
                    rotation_ancilla_target=(target_attach
                                             if target_rotation else None),
                )
            # Fall through: the MST snapshot routes no attachment pair
            # (e.g. it predates a layout quirk) — use the cached BFS plans.

        plans = self.routing.enumerate_plans(self.orientation, control, target)
        if not plans:
            raise RuntimeError(
                f"no ancilla path between qubits {control} and {target}")

        def score(plan: RoutePlan) -> Tuple[float, int]:
            expected = (rotation_cost * plan.num_rotations + cnot_cycles
                        + max(map(eft, plan.path)))
            return (expected, len(plan.path))

        return min(plans, key=score)

    def _create_cnot_task(self, index: int, gate: Gate) -> _CnotTask:
        with profile_timer(self.profile, "routing"):
            plan = self._choose_cnot_plan(gate.control, gate.target)
        cost = self._entry_costs["cnot"]
        for position in plan.ancillas_used:
            role = AncillaRole.ROUTE
            if position in (plan.rotation_ancilla_control,
                            plan.rotation_ancilla_target):
                role = AncillaRole.ROTATE
            entry = QueueEntry(index, "cnot", gate.qubits, role, cost=cost)
            self.queues.enqueue(position, entry)
        return _CnotTask(index, gate.control, gate.target, plan,
                         queues=[self.queues[position]
                                 for position in plan.ancillas_used],
                         release_cycle=self.lifecycle.release_cycle.get(
                             index, self.clock.now))

    def _create_h_task(self, index: int, gate: Gate) -> _HTask:
        qubit = gate.qubits[0]
        neighbors = self.layout.ancilla_neighbors_of_qubit(qubit)
        if not neighbors:
            raise RuntimeError(f"data qubit {qubit} has no ancilla neighbour")
        ancilla = min(neighbors, key=self._expected_free_time)
        entry = QueueEntry(index, "h", (qubit,), AncillaRole.HELPER,
                           cost=self._entry_costs["h"])
        self.queues.enqueue(ancilla, entry)
        return _HTask(index, qubit, ancilla,
                      release_cycle=self.lifecycle.release_cycle.get(
                          index, self.clock.now))

    def _maybe_lookahead_prepare(self, index: int) -> None:
        """Pre-enqueue the next Rz on each operand qubit of a starting gate."""
        if not self.lookahead_preparation:
            return
        gate = self.circuit[index]
        for qubit in gate.qubits:
            nxt = self._next_on_qubit.get((index, qubit))
            if nxt is None or nxt in self.tasks:
                continue
            nxt_gate = self.circuit[nxt]
            if gate_kind(nxt_gate) != "rz":
                continue
            # Single-qubit Rz: its only predecessor is the gate now starting,
            # so preparation (but not injection) may begin immediately.
            self._create_task(nxt, released=False)

    # -- the scheduling pass -------------------------------------------------------

    def schedule_pass(self) -> None:
        """Visit every task that can make progress at the current cycle.

        A sweep visits tasks in seniority (creation) order, but only the
        tasks in the wake index: a blocked task is revisited only once
        something it failed on changes (see :meth:`_wake`).  A visit that
        would find its task still blocked changes nothing, so skipping it
        leaves the run exactly as a sweep over every live task would.
        """
        timed = self._timed
        live = self._live
        now = self.clock.now
        while timed and timed[0][0] <= now:
            task = live.get(heappop(timed)[1])
            if task is not None:
                self._wake(task)
        # A pass can complete gates synchronously (Clifford-truncated
        # corrections) which releases successors; keep passing until the
        # frontier is stable so same-cycle progress is never missed.
        traces = self.lifecycle.traces
        visits = 0
        while True:
            if self._released:
                self._create_tasks_for_released_gates()
            heap = self._pending
            if not heap:
                break
            completed_before = len(traces)
            self._pending = []
            heapify(heap)
            self._sweep_heap = heap
            # Tasks created from here on (lookahead) wait for the next sweep.
            self._bound = self._next_seq
            while heap:
                seq = heappop(heap)
                task = live.get(seq)
                if task is None:
                    continue  # retired since it was woken
                self._cursor = seq
                task.woken = False
                if isinstance(task, _RzTask):
                    self._advance_rz(task)
                elif task.started:
                    continue
                elif isinstance(task, _CnotTask):
                    self._try_start_cnot(task)
                else:
                    self._try_start_hadamard(task)
                visits += 1
            self._cursor = self._bound = 0
            if len(traces) == completed_before:
                break
        if self.profile is not None:
            self.profile.add("task_visits", float(visits))
            self.profile.add("tasks_woken",
                             float(self._wakes - self._wakes_reported))
            self._wakes_reported = self._wakes

    def _wake(self, task: _Task) -> None:
        """Schedule a visit to ``task``: this sweep if its seniority is still
        ahead of the cursor, else the next sweep.

        Wake sources: task creation and release, the task's own prep and
        inject events, a hold released or a preparation truncated on a tile
        it is queued on (:meth:`_tile_changed`; an injection start wakes its
        own task this way, through the holds it consumes), a new head on one
        of its queues (:meth:`_dequeue`), and timed wakes at the
        ``anc_free`` / ``data_free`` cycle a visit was blocked on
        (:meth:`_wake_at`).
        """
        if task.woken:
            return
        task.woken = True
        self._wakes += 1
        seq = task.seq
        if self._cursor < seq < self._bound:
            heappush(self._sweep_heap, seq)
        else:
            self._pending.append(seq)

    def _wake_at(self, task: _Task, cycle: int) -> None:
        """Wake ``task`` once the clock reaches ``cycle`` (> now)."""
        pending = task.wake_at
        if self.clock.now < pending <= cycle:
            return  # an earlier timed wake is already registered
        task.wake_at = cycle
        heappush(self._timed, (cycle, task.seq))

    def _tile_changed(self, position: Position) -> None:
        """Wake every task queued on ``position``: its holder or its free
        cycle moved.  Blocked Rz injections wait on their routing tile
        without being at its head, so the whole queue is woken."""
        tasks = self.tasks
        for entry in self.queues[position].entries:
            task = tasks.get(entry.gate_index)
            if task is not None and not task.woken:
                self._wake(task)

    def _release_hold(self, position: Position) -> None:
        self.fabric.release_hold(position)
        self._tile_changed(position)

    def _dequeue(self, gate_index: int, queues: List[AncillaQueue]) -> None:
        """Remove a retiring gate from its queues; wake every new head."""
        heads = [queue for queue in queues
                 if queue.entries and queue.entries[0].gate_index == gate_index]
        self.queues.remove_gate_everywhere(gate_index)
        tasks = self.tasks
        for queue in heads:
            if queue.entries:
                task = tasks[queue.entries[0].gate_index]
                if not task.woken:
                    self._wake(task)

    # -- Rz state machine ----------------------------------------------------------

    def _advance_rz(self, task: _RzTask) -> None:
        if task.level >= task.limit:
            # The outstanding correction is a Clifford rotation: free.
            self._complete_rz(task)
            return
        self._start_rz_preparations(task)
        self._maybe_start_injection(task)

    def _start_rz_preparations(self, task: _RzTask) -> None:
        # The correction level the candidates should be preparing right now.
        level = task.level
        if self.config.eager_correction_prep:
            if task.injecting or level in task.holding.values():
                level += 1
        if level >= task.limit:
            return
        now = self.clock.now
        # Eligibility never depends on the durations drawn below (candidate
        # tiles are distinct), so the draws batch into one vectorised call —
        # stream-equivalent to the historical per-candidate scalar draws.
        # The filter uses hoisted lookups and the task's pre-resolved queue
        # references.  It tests the queue head before the free cycle: a tile
        # headed by another gate wakes this task through :meth:`_dequeue`
        # once the head moves on, so only a busy tile this gate heads arms a
        # timed wake.
        fabric = self.fabric
        anc_free = fabric.anc_free
        anc_holding = fabric.anc_holding
        gate_index = task.gate_index
        preparing = task.preparing
        holding = task.holding
        current_level = task.level
        eligible = []
        busy_until = 0
        for position, queue in zip(task.candidates, task.queues):
            if position in preparing:
                continue
            if holding.get(position, -1) >= current_level:
                continue
            entries = queue.entries
            if not entries or entries[0].gate_index != gate_index:
                continue
            holder = anc_holding.get(position)
            if holder is not None and holder != gate_index:
                continue
            free = anc_free[position]
            if free > now:
                if busy_until == 0 or free < busy_until:
                    busy_until = free
                continue
            eligible.append((position, queue))
        if busy_until:
            self._wake_at(task, busy_until)
        if not eligible:
            return
        if len(eligible) == 1:
            durations = [self.prep_model.sample_cycles(self.rng)]
        else:
            durations = self.prep_model.sample_cycles_batch(self.rng,
                                                            len(eligible))
        for (position, queue), duration in zip(eligible, durations):
            duration = int(duration)
            finish = now + duration
            preparing[position] = [finish, level]
            task.prep_attempts += 1
            if task.first_start is None:
                task.first_start = now
            fabric.occupy_ancilla(position, now, finish)
            queue.update_angle_level(gate_index, level)
            head = queue.head
            if head is not None and head.gate_index == gate_index:
                head.status = AncillaStatus.PREPARING
            if self.profile is not None:
                self.profile.add("sim_prep_cycles", float(duration))
            self.clock.push(finish, "prep", (gate_index, position, finish))

    def _injection_resources(self, task: _RzTask, position: Position
                             ) -> Optional[Tuple[List[Position], int]]:
        """Resources and duration to inject from ``position`` into the data qubit."""
        attachment = task.attachment[position]
        if attachment == "Z":
            return [position], self.costs.zz_injection_cycles
        if attachment == "X":
            return [position], self.costs.cnot_injection_cycles
        router: Position = attachment  # diagonal candidate: route through this tile
        free = self.fabric.anc_free[router]
        if free > self.clock.now:
            self._wake_at(task, free)
            return None
        holder = self.fabric.anc_holding.get(router)
        if holder not in (None, task.gate_index):
            return None
        # The router may be holding one of *our own* eagerly prepared
        # correction states; sacrificing it to unblock the injection is
        # always worth it (extra successes "can be discarded if necessary",
        # Section 3.2).
        if holder == task.gate_index:
            task.holding.pop(router, None)
            self._release_hold(router)
        return [position, router], self.costs.cnot_injection_cycles

    def _maybe_start_injection(self, task: _RzTask) -> None:
        if task.injecting or not task.released or not task.holding:
            return
        now = self.clock.now
        free = self.fabric.data_free[task.qubit]
        if free > now:
            self._wake_at(task, free)
            return
        ready = [pos for pos, lvl in task.holding.items() if lvl == task.level]
        if not ready:
            return
        # Prefer the cheapest attachment (Z edge, then X edge, then diagonal).
        def rank(pos: Position) -> int:
            attachment = task.attachment[pos]
            if attachment == "Z":
                return 0
            if attachment == "X":
                return 1
            return 2

        for position in sorted(ready, key=rank):
            resources = self._injection_resources(task, position)
            if resources is None:
                continue
            tiles, duration = resources
            finish = now + duration
            for tile in tiles:
                self.fabric.occupy_ancilla(tile, now, finish)
            self.fabric.occupy_data(task.qubit, now, finish)
            task.injecting = True
            task.injections += 1
            if task.first_start is None:
                task.first_start = now
            # The consumed state (and any surplus same-level states) are gone;
            # surplus holders immediately become eager-correction preparers.
            task.holding.pop(position, None)
            self._release_hold(position)
            for other, level in list(task.holding.items()):
                if level == task.level:
                    task.holding.pop(other)
                    self._release_hold(other)
            if self.profile is not None:
                self.profile.add("sim_injection_cycles", float(duration))
            self.clock.push(finish, "inject",
                            (task.gate_index, position, finish))
            self._maybe_lookahead_prepare(task.gate_index)
            return

    def _on_prep_done(self, gate_index: int, position: Position, finish: int) -> None:
        task = self.tasks.get(gate_index)
        if not isinstance(task, _RzTask) or task.done:
            return
        info = task.preparing.get(position)
        if info is None or info[0] != finish:
            return  # stale event (preparation was cancelled)
        task.preparing.pop(position)
        if not task.woken:
            self._wake(task)
        level = info[1]
        if level < task.level:
            return  # the chain moved past this level; discard the state
        is_first_at_level = level not in task.holding.values()
        task.holding[position] = level
        self.fabric.hold(position, gate_index)
        head = self.queues[position].head
        if head is not None and head.gate_index == gate_index:
            head.status = AncillaStatus.DONE_PREPARING
        if (is_first_at_level and level == task.level
                and self.config.eager_correction_prep):
            # In-place retarget of the other in-flight preparations to the
            # correction angle (Section 4.1).
            next_level = min(task.level + 1, task.limit)
            for other, other_info in task.preparing.items():
                if other_info[1] == task.level:
                    other_info[1] = next_level
                    self.queues[other].update_angle_level(gate_index, next_level)

    def _on_injection_done(self, gate_index: int, position: Position,
                           finish: int) -> None:
        task = self.tasks.get(gate_index)
        if not isinstance(task, _RzTask) or task.done:
            return
        self._apply_injection_outcome(task, bool(self.rng.random() < 0.5))

    def _on_injections_done(self, payloads: list) -> None:
        """A same-cycle run of injection completions, outcomes drawn at once.

        Stream-equivalence with the scalar path: every in-flight injection
        belongs to a distinct gate (``task.injecting`` admits one at a time)
        and handling one outcome never changes whether another event in the
        run is stale — so filtering the live events first and then drawing
        all their outcomes in one vectorised call consumes the RNG exactly
        like the reference engine's draw-per-event interleaving.
        """
        tasks = self.tasks
        live = []
        for gate_index, _position, _finish in payloads:
            task = tasks.get(gate_index)
            if isinstance(task, _RzTask) and not task.done:
                live.append(task)
        if not live:
            return
        if len(live) == 1:
            self._apply_injection_outcome(live[0],
                                          bool(self.rng.random() < 0.5))
            return
        outcomes = self.rng.random(len(live)) < 0.5
        apply = self._apply_injection_outcome
        for task, success in zip(live, outcomes):
            apply(task, bool(success))

    def _apply_injection_outcome(self, task: _RzTask, success: bool) -> None:
        task.injecting = False
        self._wake(task)
        if success:
            self._complete_rz(task)
            return
        task.level += 1
        if task.level >= task.limit:
            # The remaining correction is Clifford: applied in the frame, free.
            self._complete_rz(task)

    def _complete_rz(self, task: _RzTask) -> None:
        task.done = True
        now = self.clock.now
        for position in task.preparing:
            # Terminate in-flight preparations immediately (Figure 7, t=5).
            self.fabric.truncate_ancilla(position, now)
            self._tile_changed(position)
        task.preparing.clear()
        for position in list(task.holding):
            self._release_hold(position)
        task.holding.clear()
        self._dequeue(task.gate_index, task.queues)
        scheduled = task.release_cycle if task.release_cycle is not None else now
        start = task.first_start if task.first_start is not None else scheduled
        self._finish_gate(GateTrace(
            task.gate_index, "rz", (task.qubit,),
            scheduled_cycle=scheduled, start_cycle=start, end_cycle=now,
            injections=task.injections,
            preparation_attempts=task.prep_attempts))

    # -- CNOT and Hadamard ----------------------------------------------------------

    def _try_start_cnot(self, task: _CnotTask) -> None:
        now = self.clock.now
        fabric = self.fabric
        data_free = fabric.data_free
        control_free = data_free[task.control]
        target_free = data_free[task.target]
        if control_free > now or target_free > now:
            self._wake_at(task, control_free if control_free > target_free
                          else target_free)
            return
        # Every plan tile must have this gate at the head of its queue, be
        # unheld (or held by this gate) and free; head first, as in
        # :meth:`_start_rz_preparations`.
        gate_index = task.gate_index
        anc_free = fabric.anc_free
        anc_holding = fabric.anc_holding
        resources = task.plan.ancillas_used
        task_queues = task.queues
        for position, queue in zip(resources, task_queues):
            entries = queue.entries
            if not entries or entries[0].gate_index != gate_index:
                return
            holder = anc_holding.get(position)
            if holder is not None and holder != gate_index:
                return
            free = anc_free[position]
            if free > now:
                self._wake_at(task, free)
                return
        duration = task.plan.duration(self.costs)
        finish = now + duration
        for position, queue in zip(resources, task_queues):
            fabric.occupy_ancilla(position, now, finish)
            head = queue.head
            if head is not None and head.gate_index == gate_index:
                head.status = AncillaStatus.EXECUTING
        self.fabric.occupy_data(task.control, now, finish)
        self.fabric.occupy_data(task.target, now, finish)
        task.started = True
        task.start_cycle = now
        if self.profile is not None:
            self.profile.add("sim_cnot_cycles", float(duration))
        self.clock.push(finish, "cnot", (task.gate_index, finish))
        self._maybe_lookahead_prepare(task.gate_index)

    def _cnot_trace(self, task: _CnotTask, finish: int) -> GateTrace:
        """Apply a CNOT completion's side effects and build its trace."""
        if task.plan.control_rotation:
            self.orientation.rotate(task.control)
        if task.plan.target_rotation:
            self.orientation.rotate(task.target)
        self._dequeue(task.gate_index, task.queues)
        return GateTrace(
            task.gate_index, "cnot", (task.control, task.target),
            scheduled_cycle=task.release_cycle,
            start_cycle=task.start_cycle if task.start_cycle is not None
            else task.release_cycle,
            end_cycle=finish,
            edge_rotations=task.plan.num_rotations)

    def _on_cnot_done(self, gate_index: int, finish: int) -> None:
        task = self.tasks.get(gate_index)
        if not isinstance(task, _CnotTask):
            return
        self._finish_gate(self._cnot_trace(task, finish))

    def _on_cnots_done(self, payloads: list) -> None:
        """A same-cycle run of CNOT completions, retired in one batch."""
        tasks = self.tasks
        traces = []
        for gate_index, finish in payloads:
            task = tasks.get(gate_index)
            if isinstance(task, _CnotTask):
                traces.append(self._cnot_trace(task, finish))
        self._finish_gates(traces)

    def _try_start_hadamard(self, task: _HTask) -> None:
        now = self.clock.now
        fabric = self.fabric
        free = fabric.data_free[task.qubit]
        if free > now:
            self._wake_at(task, free)
            return
        ancilla = task.ancilla
        if (not self.queues[ancilla].is_at_head(task.gate_index)
                or fabric.anc_holding.get(ancilla) not in (None,
                                                           task.gate_index)):
            return
        free = fabric.anc_free[ancilla]
        if free > now:
            self._wake_at(task, free)
            return
        duration = self.costs.hadamard_cycles
        finish = now + duration
        self.fabric.occupy_ancilla(task.ancilla, now, finish)
        self.fabric.occupy_data(task.qubit, now, finish)
        task.started = True
        task.start_cycle = now
        if self.profile is not None:
            self.profile.add("sim_hadamard_cycles", float(duration))
        self.clock.push(finish, "h", (task.gate_index, finish))
        self._maybe_lookahead_prepare(task.gate_index)

    def _hadamard_trace(self, task: _HTask, finish: int) -> GateTrace:
        """Apply a Hadamard completion's side effects and build its trace."""
        # A logical Hadamard exchanges the patch's X and Z boundaries.
        self.orientation.rotate(task.qubit)
        self._dequeue(task.gate_index, [self.queues[task.ancilla]])
        return GateTrace(
            task.gate_index, "h", (task.qubit,),
            scheduled_cycle=task.release_cycle,
            start_cycle=task.start_cycle if task.start_cycle is not None
            else task.release_cycle,
            end_cycle=finish)

    def _on_hadamard_done(self, gate_index: int, finish: int) -> None:
        task = self.tasks.get(gate_index)
        if not isinstance(task, _HTask):
            return
        self._finish_gate(self._hadamard_trace(task, finish))

    def _on_hadamards_done(self, payloads: list) -> None:
        """A same-cycle run of Hadamard completions, retired in one batch."""
        tasks = self.tasks
        traces = []
        for gate_index, finish in payloads:
            task = tasks.get(gate_index)
            if isinstance(task, _HTask):
                traces.append(self._hadamard_trace(task, finish))
        self._finish_gates(traces)

    # -- completion plumbing ----------------------------------------------------------

    def _finish_gate(self, trace: GateTrace) -> None:
        self._released.extend(self.lifecycle.retire(trace, self.clock.now))
        del self._live[self.tasks.pop(trace.gate_index).seq]

    def _finish_gates(self, traces: List[GateTrace]) -> None:
        """Retire an ordered batch of traces with one lifecycle call."""
        if not traces:
            return
        self._released.extend(self.lifecycle.retire_many(traces,
                                                         self.clock.now))
        pop = self.tasks.pop
        live = self._live
        for trace in traces:
            del live[pop(trace.gate_index).seq]


class RescqScheduler(Scheduler):
    """The realtime scheduler proposed by the paper.

    Parameters
    ----------
    lookahead_preparation:
        Enable preemptive enqueueing of the next Rz gate on a qubit while the
        previous gate is still executing (on by default; exposed for
        ablations).
    name:
        Override the scheduler name recorded in results (used when running
        ablated variants side by side).
    """

    name = "rescq"

    def __init__(self, lookahead_preparation: bool = True,
                 name: Optional[str] = None) -> None:
        self.lookahead_preparation = lookahead_preparation
        if name is not None:
            self.name = name

    def run(self, circuit: Circuit, layout: GridLayout,
            config: SimulationConfig, seed: int = 0) -> SimulationResult:
        prepared = self.prepare_circuit(circuit)
        prepared.name = circuit.name
        kernel = SimulationKernel(prepared, layout, config, seed,
                                  scheduler_name=self.name,
                                  benchmark=circuit.name,
                                  activity_window=config.activity_window)
        policy = RescqPolicy(kernel,
                             lookahead_preparation=self.lookahead_preparation)
        return kernel.run_event_driven(policy)
