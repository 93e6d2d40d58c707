"""Storage substrate: backends, lock manager, versioned store, undo log.

Names load on first access (:mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    (".backend", ("StorageBackend",)),
    (".database", ("Database",)),
    (".locks", ("LockManager", "LockMode", "LockOutcome")),
    (".versioned", ("MultiversionStore",)),
    (".wal", ("UndoLog",)),
)
