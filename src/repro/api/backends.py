"""One introspection surface over every pluggable backend family.

The simulator has two backend axes, both selected through
:class:`~repro.sim.config.SimulationConfig` and both guaranteeing
byte-identical simulated results:

* **routing** (``routing_backend``) — the shortest-path machinery behind
  the routing index (:mod:`repro.lattice.backends`);
* **kernel** (``kernel_backend``) — the event engine driving the
  discrete-event loop (:mod:`repro.kernel.engines`).

:func:`available_backends` answers "what can I select here, and will it
work on this machine?" without making callers import the engine modules —
the CLI's ``rescq backends`` verb and the benchmark harnesses both render
from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

__all__ = ["BackendInfo", "available_backends"]

#: pip extra that provides the optional compiled backends.
_NUMBA_HINT = "pip install repro[numba]"

_DESCRIPTIONS = {
    ("routing", "python"): "reference per-tile BFS",
    ("routing", "vector"): "flat-list BFS with memoised parent trees",
    ("routing", "numba"): "compiled BFS kernel",
    ("kernel", "python"): "reference per-event heap dispatch",
    ("kernel", "batched"): "cycle-bucketed boundary drain, batched dispatch",
    ("kernel", "numba"): "batched engine with a compiled drain segmentation",
}


@dataclass(frozen=True)
class BackendInfo:
    """One selectable backend: identity, availability and how to get it."""

    name: str
    #: Which config axis selects it: ``"routing"`` or ``"kernel"``.
    kind: str
    #: Importable right now on this interpreter.
    available: bool
    #: The :class:`~repro.sim.config.SimulationConfig` default for its kind.
    default: bool
    description: str
    #: How to make an unavailable backend available (``None`` when it is).
    install_hint: Optional[str] = None


def available_backends(kind: Optional[str] = None) -> List[BackendInfo]:
    """Describe every selectable backend, optionally filtered by ``kind``.

    Always lists unavailable backends too (with an ``install_hint``) so a
    caller can tell "unknown name" apart from "known but missing extra".
    """
    if kind not in (None, "routing", "kernel"):
        raise ValueError(
            f"kind must be 'routing', 'kernel' or None, got {kind!r}")
    from ..kernel.engines import KERNEL_BACKEND_NAMES, kernel_numba_available
    from ..lattice import ROUTING_BACKEND_NAMES, numba_available
    from ..sim.config import SimulationConfig

    defaults = {
        "routing": SimulationConfig.routing_backend,
        "kernel": SimulationConfig.kernel_backend,
    }
    families = {
        "routing": (ROUTING_BACKEND_NAMES, numba_available),
        "kernel": (KERNEL_BACKEND_NAMES, kernel_numba_available),
    }
    infos: List[BackendInfo] = []
    for family, (names, numba_ok) in families.items():
        if kind is not None and kind != family:
            continue
        for name in names:
            available = name != "numba" or numba_ok()
            infos.append(BackendInfo(
                name=name,
                kind=family,
                available=available,
                default=name == defaults[family],
                description=_DESCRIPTIONS[(family, name)],
                install_hint=None if available else _NUMBA_HINT,
            ))
    return infos
