"""Distributed-system substrate for DMT(k): network, clocks, lock rounds.

Names load on first access (:mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    (".network", ("Message", "MsgKind", "Network")),
    (".clocks", ("LamportClock", "SimClock")),
    (".simulation", ("LockWorkItem", "SimulationResult", "ordered", "run_rounds")),
)
