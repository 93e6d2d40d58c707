"""Parent-vs-change differential for the windowed lane's abort path.

``python benchmarks/diff_windowed_lane.py dump OUT.json`` runs every
configuration below against whatever ``repro`` is on ``PYTHONPATH`` and
writes, per run, every ``ExecutionReport`` field, every
``executor.stats`` counter and the whole ``stage_snapshot()``.
``python benchmarks/diff_windowed_lane.py compare A.json B.json`` prints
the keys on which two dumps differ (nothing when they agree) and the
totals that show the interesting paths were reached.  Only runs and
fields both dumps hold are compared; a run or a field that one side
lacks (a configuration or a counter added or removed between the two)
is listed on its own and does not count as a difference.

Usage for a refactor of ``engine/pipeline/service.py``: dump once with
``PYTHONPATH=<parent checkout>/src``, once with ``PYTHONPATH=src``,
compare (``repro`` must be importable in every mode).  Deterministic:
no wall-clock value is recorded.
"""

from __future__ import annotations

import json
import random
import sys

from repro.check.fuzz import _REPORT_FIELDS as REPORT_FIELDS
from repro.engine.pipeline import TransactionService
from repro.model.generator import (
    WorkloadSpec,
    generate_transactions,
    interleave,
)

#: The windowed configurations (service arguments).  Sequential-lane
#: rows ride along so the shared stage methods are compared there too.
CONFIGS = {
    "mt2-s2-w4-immediate": dict(k=2, n_shards=2, parallel=0, window=4),
    "mt2-s2-w8-fail": dict(
        k=2, n_shards=2, parallel=0, window=8, max_attempts=4
    ),
    "mt3-s4-w32-anti": dict(
        k=3, n_shards=4, parallel=0, window=32, anti_starvation=True
    ),
    "mt3-s4-w8-backoff": dict(
        k=3, n_shards=4, parallel=0, window=8, retry_policy="capped-backoff"
    ),
    "mt3-s4-w8-global": dict(
        k=3, n_shards=4, parallel=0, window=8, retry_policy="global-restart"
    ),
    "mt2-s2-w16-global-2pc": dict(
        k=2, n_shards=2, parallel=2, window=16, transport="loopback",
        retry_policy="global-restart",
    ),
    "mt3-s4-w32-2pc": dict(
        k=3, n_shards=4, parallel=2, window=32, transport="loopback"
    ),
    "mvmt3-s4-w8": dict(
        k=3, n_shards=4, parallel=0, window=8, protocol="mvmt",
        anti_starvation=True, max_attempts=100,
    ),
    "mvmt3-s2-w4": dict(
        k=3, n_shards=2, parallel=0, window=4, protocol="mvmt"
    ),
    "mvmt3-s2-w4-fail": dict(
        k=3, n_shards=2, parallel=0, window=4, protocol="mvmt",
        max_attempts=3,
    ),
    "mvmt3-s4-w16-2pc": dict(
        k=3, n_shards=4, parallel=2, window=16, protocol="mvmt",
        transport="loopback", anti_starvation=True,
    ),
    "mvmt3-s4-w8-global": dict(
        k=3, n_shards=4, parallel=0, window=8, protocol="mvmt",
        retry_policy="global-restart",
    ),
    # Sequential lanes over the same streams.
    "seq-mt2-s2": dict(k=2, n_shards=2),
    "seq-mt2-s2-backoff": dict(k=2, n_shards=2, retry_policy="capped-backoff"),
    "seq-mt2-s2-global": dict(k=2, n_shards=2, retry_policy="global-restart"),
    "seq-mt2-s2-backoff-partial": dict(
        k=2, n_shards=2, retry_policy="capped-backoff", rollback="partial"
    ),
    "seq-mvmt3-s1": dict(k=3, protocol="mvmt", max_attempts=100),
    "seq-mvmt3-s4-backoff": dict(
        k=3, n_shards=4, protocol="mvmt", retry_policy="capped-backoff",
        max_attempts=5,
    ),
}

#: Streams and their seeds: a short hot one (aborts, failures), a
#: read-mostly one with longer programs (multiversion parks and
#: cascades), and two tiny seeds found by search that end in a
#: commit-dependency cycle on the mvmt windowed configurations.
STREAMS = {
    "hot3": (
        WorkloadSpec(
            num_txns=60, ops_per_txn=3, num_items=8, write_ratio=0.5,
            skew=1.1,
        ),
        (1, 5, 9),
    ),
    "readmostly6": (
        WorkloadSpec(
            num_txns=60, ops_per_txn=6, num_items=12, write_ratio=0.3,
            skew=1.1,
        ),
        (1, 5, 9),
    ),
    "cycle4": (
        WorkloadSpec(num_txns=6, ops_per_txn=4, num_items=3, write_ratio=0.5),
        (387, 572),
    ),
}
LOOPS = ("closed", "open")


def run_one(config: dict, spec: WorkloadSpec, seed: int, loop: str) -> dict:
    rng = random.Random(seed)
    txns = generate_transactions(spec, rng)
    with TransactionService(**config) as service:
        service.submit_programs(txns)
        if loop == "open":
            clock, arrivals = 0.0, {}
            for txn in txns:
                clock += rng.expovariate(0.5 / spec.ops_per_txn)
                arrivals[txn.txn_id] = int(clock)
            report = service.run(seed=seed, arrivals=arrivals)
        else:
            report = service.run(schedule=interleave(txns, rng))
        out = {}
        for name in REPORT_FIELDS:
            value = getattr(report, name)
            if name == "committed_ops":
                value = [str(op) for op in value]
            elif isinstance(value, (set, frozenset)):
                value = sorted(value)
            out[f"report.{name}"] = value
        for name, value in sorted(service.executor.stats.items()):
            out[f"stats.{name}"] = value
        out["stage_snapshot"] = service.stage_snapshot()
    return out


def dump(path: str) -> None:
    runs = {}
    for cname, config in CONFIGS.items():
        for sname, (spec, seeds) in STREAMS.items():
            for seed in seeds:
                for loop in LOOPS:
                    key = f"{cname}/{sname}/seed{seed}/{loop}"
                    runs[key] = run_one(config, spec, seed, loop)
    with open(path, "w") as handle:
        json.dump(runs, handle, indent=1, sort_keys=True)
    print(f"{len(runs)} runs -> {path}")


def _flatten(prefix: str, value, into: dict) -> None:
    if isinstance(value, dict):
        for key, inner in value.items():
            _flatten(f"{prefix}.{key}", inner, into)
    else:
        into[prefix] = value


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    for side, only in (("A", set(a) - set(b)), ("B", set(b) - set(a))):
        if only:
            print(f"{len(only)} runs only in {side}: "
                  + ", ".join(sorted({key.split('/')[0] for key in only})))
    differing = 0
    by_field: dict[str, int] = {}
    one_sided: dict[str, int] = {}
    totals: dict[str, int] = {}
    windowed = 0
    shared = sorted(set(a) & set(b))
    for key in shared:
        flat_a: dict = {}
        flat_b: dict = {}
        _flatten("", a[key], flat_a)
        _flatten("", b[key], flat_b)
        for name in set(flat_a) ^ set(flat_b):
            label = f"{name} (only in {'A' if name in flat_a else 'B'})"
            one_sided[label] = one_sided.get(label, 0) + 1
        fields = sorted(
            name
            for name in set(flat_a) & set(flat_b)
            if flat_a[name] != flat_b[name]
        )
        if fields:
            differing += 1
            print(f"DIFF {key}:")
            for name in fields:
                by_field[name] = by_field.get(name, 0) + 1
                print(f"   {name}: {flat_a[name]!r} -> {flat_b[name]!r}")
        if not key.startswith("seq-"):
            windowed += 1
            for name in (
                "stats.aborts",
                "stats.cascade_restarts",
                "stats.commit_parks",
                "stats.failures",
                "stats.global_restarts",
                "stats.dependency_cycle_restarts",
            ):
                totals[name] = totals.get(name, 0) + a[key].get(name, 0)
    for name, count in sorted(one_sided.items()):
        print(f"field {name} in {count} runs")
    for name, count in sorted(by_field.items()):
        print(f"field {name} differs in {count} runs")
    print(
        f"{len(shared)} shared runs ({windowed} windowed), "
        f"{differing} differ; "
        "windowed totals in the first dump: "
        + ", ".join(f"{n.split('.')[1]}={v}" for n, v in sorted(totals.items()))
    )
    return 1 if differing else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "dump":
        dump(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
