"""Conformance oracle subsystem: the standing correctness harness.

Four parts (the ISSUE-3 tentpole):

* :mod:`repro.check.oracle` — the unified :class:`SerializabilityOracle`
  (conflict-graph DSR, view-SR brute force, Definition 6 replay
  certificate) and the shared pair/graph primitives every decider
  delegates to;
* :mod:`repro.check.enumerate` — exhaustive small-scope enumeration of
  every log up to (n transactions x q operations x m items), asserting
  Theorem 2, the Definition 6 certificate, the Fig. 4 region assignments
  and the Theorem 3 collapse for each one;
* :mod:`repro.check.fuzz` — the seeded differential fuzzer driving
  identical operation streams through every scheduler via the executor
  and cross-checking acceptance against the class hierarchy;
* :mod:`repro.check.shrink` — delta-debugging (ddmin) counterexample
  reduction used by the fuzzer.

Submodules are imported lazily (:mod:`repro._lazy`): lower layers (``classes.membership``,
``analysis.certificate``) delegate *into* :mod:`repro.check.oracle`, and
the enumerator/fuzzer import those layers back — eager package imports
here would close that cycle before the lower modules finish loading.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    (".oracle", ("SerializabilityOracle", "Verdict", "ViewSerializabilityUnknown")),
)
__all__[:0] = ("oracle", "enumerate", "fuzz", "shrink")
