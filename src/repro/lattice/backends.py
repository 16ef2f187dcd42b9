"""Pluggable shortest-path backends for the routing index.

Every backend answers the same query — the shortest path of free ancilla
tiles between two ancillas, byte-identical to the reference implementation —
but with different machinery:

* ``python`` — the reference: the original object-graph FIFO BFS
  (:func:`~repro.lattice.routing.bfs_ancilla_path`).  Always available,
  always correct; the other backends are validated against it.
* ``vector`` — the same FIFO BFS over the
  :class:`~repro.fabric.flat.FlatGrid` flat adjacency lists
  (``route_adjacency``: python ints, so nothing is boxed).  Full parent
  trees are memoised per source (and per layout revision) as tuples of
  python ints, so repeated goals cost one walk up the tree.  It is a
  scalar loop, not a numpy frontier sweep: a 1024-tile fabric has ~50 BFS
  levels of ~15 tiles, too few per numpy call to pay its overhead.  (The
  name predates this kernel and stays because backend names are part of
  job fingerprints.)
* ``numba`` — the flat BFS compiled with ``numba.njit`` over the int32
  ``route_neighbors`` table (optional dependency,
  ``pip install repro[numba]``).  Import-guarded: selecting it without
  numba installed raises with an install hint.

Exactness argument (why the flat BFS is byte-identical): it keeps the
reference's own rule.  Tiles are popped FIFO, i.e. in discovery order; each
popped tile scans its neighbours in ``Edge`` declaration order, which is
the order of every ``route_adjacency`` list; the first claim on a tile sets
its parent and is never overwritten.  So every parent equals the
reference's.  The reference stops as soon as it claims the goal, but
because claims are final, a full tree built without stopping gives the
goal the same parent chain — one memoised tree serves every goal of its
source.  A blocked query marks its blocked tiles as claimed before the
search starts, which is the reference's ``neighbor in blocked`` skip, and
stops once the goal is claimed.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..fabric import GridLayout, Position
from ..fabric.flat import FlatGrid

__all__ = ["RoutingBackend", "PythonBackend", "VectorBackend", "NumbaBackend",
           "ROUTING_BACKEND_NAMES", "get_backend", "numba_available"]

ROUTING_BACKEND_NAMES = ("python", "vector", "numba")


def numba_available() -> bool:
    """True when the optional numba dependency can be imported."""
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


class RoutingBackend:
    """Strategy object answering shortest-ancilla-path queries for one layout.

    A backend instance is owned by one :class:`~repro.lattice.routing.RoutingIndex`
    and may memoise per-layout-revision state; :meth:`invalidate` is called
    whenever the layout version moves.
    """

    name = "abstract"

    def shortest_path(self, layout: GridLayout, start: Position,
                      goal: Position,
                      blocked: Optional[Set[Position]] = None
                      ) -> Optional[List[Position]]:
        raise NotImplementedError

    def invalidate(self) -> None:
        """Drop memoised state (the layout mutated)."""


class PythonBackend(RoutingBackend):
    """The pure-python reference BFS."""

    name = "python"

    def shortest_path(self, layout: GridLayout, start: Position,
                      goal: Position,
                      blocked: Optional[Set[Position]] = None
                      ) -> Optional[List[Position]]:
        from .routing import bfs_ancilla_path
        return bfs_ancilla_path(layout, start, goal, blocked)


class VectorBackend(RoutingBackend):
    """FIFO BFS over the flat adjacency lists, with memoised parent trees."""

    name = "vector"

    def __init__(self) -> None:
        #: source flat index -> full parent tree of ``_tree_grid``.
        self._parent_trees: Dict[int, Tuple[int, ...]] = {}
        #: The FlatGrid revision the memoised trees were built on.
        self._tree_grid: Optional[FlatGrid] = None

    def invalidate(self) -> None:
        self._parent_trees.clear()
        self._tree_grid = None

    # -- the BFS kernel --------------------------------------------------------

    def _compute_parents(self, flat: FlatGrid, source: int,
                         blocked: Iterable[int], goal: int) -> List[int]:
        """Parent tree of the FIFO BFS from ``source`` (-1 = unreached).

        ``blocked`` flat indices count as claimed before the search starts,
        so the first-claim rule never hands them out; only the path to a
        goal that is not blocked itself may be read from such a tree.
        ``goal >= 0`` stops the search once the goal is claimed (one-shot
        blocked queries); memoised trees pass ``-1`` so the tree serves
        every future goal.
        """
        adjacency = flat.route_adjacency
        parents = [-1] * flat.size
        for tile in blocked:
            parents[tile] = tile
        parents[source] = source
        queue = [source]
        # Iterating a list that grows under the loop is the FIFO pop.
        for current in queue:
            for neighbor in adjacency[current]:
                if parents[neighbor] < 0:
                    parents[neighbor] = current
                    if neighbor == goal:
                        return parents
                    queue.append(neighbor)
        return parents

    def _parents_for(self, flat: FlatGrid, source: int) -> Tuple[int, ...]:
        if self._tree_grid is not flat:
            self._parent_trees.clear()
            self._tree_grid = flat
        parents = self._parent_trees.get(source)
        if parents is None:
            # Stored as a tuple: the cyclic collector stops tracking a
            # tuple of ints, so memoised trees add nothing to its full
            # collections (as lists, 2000 trees at 4096 tiles doubled the
            # time of one).
            parents = tuple(self._compute_parents(flat, source, (), -1))
            self._parent_trees[source] = parents
        return parents

    # -- the query -------------------------------------------------------------

    def shortest_path(self, layout: GridLayout, start: Position,
                      goal: Position,
                      blocked: Optional[Set[Position]] = None
                      ) -> Optional[List[Position]]:
        flat = FlatGrid.for_layout(layout)
        adjacency = flat.route_adjacency
        start_flat = flat.flat_index(start)
        goal_flat = flat.flat_index(goal)
        if (start_flat < 0 or goal_flat < 0
                or adjacency[start_flat] is None
                or adjacency[goal_flat] is None):
            return None
        if blocked and (start in blocked or goal in blocked):
            return None
        if start_flat == goal_flat:
            return [start]
        if blocked:
            blocked_flats = [index for index in map(flat.flat_index, blocked)
                             if index >= 0]
            parents = self._compute_parents(flat, start_flat, blocked_flats,
                                            goal_flat)
        else:
            parents = self._parents_for(flat, start_flat)
        if parents[goal_flat] < 0:
            return None
        positions = flat._positions
        path = [positions[goal_flat]]
        current = goal_flat
        while current != start_flat:
            current = parents[current]
            path.append(positions[current])
        path.reverse()
        return path


class NumbaBackend(VectorBackend):
    """The flat BFS compiled with ``numba.njit``.

    The compiled kernel is a scalar FIFO BFS over the int32
    ``route_neighbors`` table — the first-claim parent rule is the loop
    order itself, so its parent arrays are identical to both other
    backends.  They are converted to python ints, so every memoised tree
    goes through the same path reconstruction.
    """

    name = "numba"

    def __init__(self) -> None:
        super().__init__()
        if not numba_available():
            raise RuntimeError(
                "routing_backend='numba' requires the optional numba "
                "dependency; install it with `pip install repro[numba]` "
                "or select the 'vector' backend")
        self._kernel = _build_numba_kernel()

    def _compute_parents(self, flat: FlatGrid, source: int,
                         blocked: Iterable[int], goal: int) -> List[int]:
        blocked = list(blocked)
        blocked_mask = np.zeros(flat.size if blocked else 0, dtype=np.bool_)
        blocked_mask[blocked] = True
        return self._kernel(flat.route_neighbors, np.int32(source),
                            blocked_mask, np.int32(goal)).tolist()


def _build_numba_kernel():
    """Compile the BFS kernel (deferred so import works without numba)."""
    from numba import njit

    @njit(cache=True)
    def bfs_parents(neighbor_table, source, blocked_mask, goal):
        size = neighbor_table.shape[0]
        parents = np.full(size, -1, dtype=np.int32)
        parents[source] = source
        queue = np.empty(size, dtype=np.int32)
        queue[0] = source
        head, tail = 0, 1
        use_blocked = blocked_mask.size > 0
        while head < tail:
            current = queue[head]
            head += 1
            for axis in range(4):
                neighbor = neighbor_table[current, axis]
                if neighbor < 0 or parents[neighbor] >= 0:
                    continue
                if use_blocked and blocked_mask[neighbor]:
                    continue
                parents[neighbor] = current
                if neighbor == goal:
                    return parents
                queue[tail] = neighbor
                tail += 1
        return parents

    return bfs_parents


_BACKEND_CLASSES = {
    "python": PythonBackend,
    "vector": VectorBackend,
    "numba": NumbaBackend,
}


def get_backend(name: str) -> RoutingBackend:
    """Instantiate the named routing backend (raises on unknown names)."""
    try:
        backend_cls = _BACKEND_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"unknown routing backend {name!r}; "
            f"expected one of {ROUTING_BACKEND_NAMES}") from None
    return backend_cls()


#: Type alias documented for policy path_finder parameters.
PathFinder = Callable[[Position, Position], Optional[List[Position]]]
