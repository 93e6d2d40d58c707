"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``classify "<log>"``
    Membership of a log in every Fig. 4 class and its region.
``schedule "<log>" [--protocol P] [--k K]``
    Replay a log through a protocol and print each decision, the final
    timestamp vectors, and the serialization order.
``census [--txns N] [--items abc] [--no-write-only] [--limit M]``
    Run the Fig. 4 region census over small two-step systems.
``protocols``
    List the available protocols and their options.
``bench [--quick] [--scenario NAME ...] [--out PATH] [--jobs N] [--profile]``
    Run the consolidated benchmark scenarios and write ``BENCH_repro.json``;
    ``--jobs`` fans scenario×seed cells over a process pool, ``--profile``
    attaches cProfile hotspot breakdowns.
``check [--exhaustive N Q M | --fuzz N --seed S] [--json] [--out PATH]``
    Conformance oracle: exhaustively sweep every log of a small scope, or
    differentially fuzz all schedulers against the class hierarchy and
    shrink any failure to a minimal counterexample.
"""

from __future__ import annotations

import argparse
from typing import Callable

from .analysis.report import render_table, render_vector
from .classes.hierarchy import REGION_NAMES, census, classify, region_of
from .classes.membership import dsr_order
from .core.composite import MTkStarScheduler
from .core.distributed import DMTkScheduler
from .core.mtk import MTkScheduler
from .core.multiversion import MVMTkScheduler
from .core.protocol import Scheduler
from .engine.interval import IntervalScheduler
from .engine.optimistic import OptimisticScheduler
from .engine.to_scheduler import ConventionalTOScheduler
from .engine.two_pl_scheduler import StrictTwoPLScheduler
from .model.log import Log

PROTOCOLS: dict[str, Callable[[int], Scheduler]] = {
    "mt": lambda k: MTkScheduler(k),
    "mtstar": lambda k: MTkStarScheduler(k),
    "mv": lambda k: MVMTkScheduler(k),
    "dmt": lambda k: DMTkScheduler(k, num_sites=3),
    "2pl": lambda k: StrictTwoPLScheduler(),
    "to": lambda k: ConventionalTOScheduler(),
    "opt": lambda k: OptimisticScheduler(),
    "interval": lambda k: IntervalScheduler(),
}

PROTOCOL_NOTES: dict[str, str] = {
    "mt": "MT(k), Algorithm 1 (--k selects the vector size)",
    "mtstar": "MT(k*), Algorithm 2 (recognizes TO(1) | ... | TO(k))",
    "mv": "multiversion MT(k), implementation note III-D-6d",
    "dmt": "DMT(k) on a simulated 3-site cluster (Section V-B)",
    "2pl": "strict two-phase locking (baseline)",
    "to": "conventional scalar timestamp ordering (baseline)",
    "opt": "optimistic, backward validation (baseline)",
    "interval": "Bayer-style dynamic timestamp intervals (Section VI-A)",
}


def cmd_classify(args: argparse.Namespace) -> int:
    log = Log.parse(args.log)
    membership = classify(log)
    region = region_of(membership)
    print(f"log: {log}")
    print(f"membership: {membership}")
    print(f"Fig. 4 region {region}: {REGION_NAMES[region]}")
    order = dsr_order(log)
    if order is not None:
        print("equivalent serial order:", " ".join(f"T{t}" for t in order))
    elif membership.sr:
        print("view-serializable only")
    else:
        print("not serializable")
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    log = Log.parse(args.log)
    scheduler = PROTOCOLS[args.protocol](args.k)
    result = scheduler.run(log)
    print(f"protocol: {scheduler.name}")
    for decision in result.decisions:
        print(f"  {decision}")
    print(f"accepted: {result.accepted}")
    if result.aborted:
        print("aborted:", ", ".join(f"T{t}" for t in sorted(result.aborted)))
    snapshot = getattr(scheduler, "table", None)
    if snapshot is not None and hasattr(snapshot, "snapshot"):
        print("final vectors:")
        for txn, vector in snapshot.snapshot().items():
            print(f"  TS({txn}) = {render_vector(vector)}")
    order_fn = getattr(scheduler, "serialization_order", None)
    if result.accepted and callable(order_fn):
        print(
            "serialization order:",
            " ".join(f"T{t}" for t in order_fn()),
        )
    return 0 if result.accepted else 1


def cmd_census(args: argparse.Namespace) -> int:
    items = tuple(args.items)
    result = census(
        num_txns=args.txns,
        items=items,
        include_write_only=not args.no_write_only,
        limit=args.limit,
    )
    rows = [
        [
            region,
            REGION_NAMES[region],
            result.counts[region],
            str(result.representatives.get(region, "-")),
        ]
        for region in range(1, 13)
    ]
    print(
        render_table(
            ["region", "classes", "logs", "representative"],
            rows,
            title=(
                f"census: {args.txns} two-step transactions over "
                f"items {set(items)} ({result.total_logs} logs)"
            ),
        )
    )
    missing = result.missing_regions()
    if missing:
        print(f"regions not inhabited by this family: {missing}")
    return 0


def cmd_protocols(args: argparse.Namespace) -> int:
    for name, note in PROTOCOL_NOTES.items():
        print(f"{name:10s} {note}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .obs import bench

    if args.list:
        for name, scenario in sorted(bench.scenarios().items()):
            print(f"{name:22s} {scenario.description}")
        return 0
    try:
        payload = bench.run_bench(
            quick=args.quick,
            only=args.scenario or None,
            out=args.out,
            jobs=args.jobs,
            profile=args.profile,
            parallel=args.parallel,
            window=args.window,
            transport=args.transport,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}")
        return 2
    problems = bench.validate_payload(payload)
    rows = [
        [
            name,
            result["throughput"],
            result["aborts"],
            result["restarts"],
            result["element_visits"],
            result["wall_ms"],
        ]
        for name, result in sorted(payload["scenarios"].items())
    ]
    print(
        render_table(
            ["scenario", "txn/s", "aborts", "restarts", "visits", "wall_ms"],
            rows,
            title=f"bench ({'quick' if args.quick else 'full'} mode)",
        )
    )
    if args.profile:
        for name in sorted(payload["scenarios"]):
            hotspots = payload["scenarios"][name].get("profile", [])
            if not hotspots:
                continue
            print(f"\nhotspots: {name}")
            for row in hotspots:
                print(
                    f"  {row['tottime_ms']:9.3f}ms "
                    f"{row['calls']:>8} calls  {row['function']}"
                )
    if args.out:
        print(f"wrote {args.out}")
    if problems:
        print("schema problems:", "; ".join(problems))
        return 1
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    import json

    from .check.enumerate import exhaustive_check
    from .check.fuzz import FuzzConfig, dump_counterexample_traces, run_fuzz

    if args.exhaustive is None and args.fuzz is None:
        print("error: pick a mode: --exhaustive N Q M or --fuzz N")
        return 2

    quiet = args.json

    def sweep_progress(checked: int, seen: int) -> None:
        if not quiet:
            print(f"  ... {checked} canonical logs checked ({seen} seen)")

    def fuzz_progress(cases: int, violations: int) -> None:
        if not quiet:
            print(f"  ... {cases} cases fuzzed ({violations} violations)")

    payloads = []
    counterexample_report = None
    if args.exhaustive is not None:
        n, q, m = args.exhaustive
        result = exhaustive_check(
            n, q, m, limit=args.limit, progress=sweep_progress
        )
        payloads.append(result.to_dict())
        if not args.json:
            print(
                f"exhaustive {n}x{q}x{m}: {result.total_logs} logs, "
                f"{result.canonical_logs} canonical, "
                f"{len(result.violations)} violations "
                f"({result.elapsed_s:.1f}s)"
            )
            for violation in result.violations[:10]:
                print(f"  [{violation.rule}] {violation.log}")
                print(f"      {violation.detail}")
    if args.fuzz is not None:
        config = FuzzConfig(
            iterations=args.fuzz,
            seed=args.seed,
            shrink=not args.no_shrink,
            shards=tuple(args.shards),
            parallel=args.check_parallel,
            recovery=args.check_recovery,
            mvcc=args.check_mvcc,
        )
        report = run_fuzz(config, progress=fuzz_progress)
        counterexample_report = report
        payloads.append(report.to_dict())
        if not args.json:
            print(
                f"fuzz: {report.cases} cases, {report.violations} "
                f"violations ({report.elapsed_s:.1f}s)"
            )
            for example in report.counterexamples:
                print(
                    f"  [{example.rule}] case {example.case} shrunk to "
                    f"{example.shrunk_ops} ops: {example.shrunk}"
                )
                print(f"      {example.detail}")
    payload = payloads[0] if len(payloads) == 1 else {"runs": payloads}
    ok = all(p.get("ok", True) for p in payloads)
    if args.json:
        print(json.dumps(payload, indent=2))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        if not args.json:
            print(f"wrote {args.out}")
    if (
        args.trace_dir
        and counterexample_report is not None
        and counterexample_report.counterexamples
    ):
        for path in dump_counterexample_traces(
            counterexample_report, args.trace_dir
        ):
            if not args.json:
                print(f"trace: {path}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Multidimensional timestamp protocols for concurrency control "
            "(Leu & Bhargava, ICDE 1986)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="classify a log into the Fig. 4 hierarchy"
    )
    p_classify.add_argument("log", help='e.g. "W1[x] R2[x] W2[y]"')
    p_classify.set_defaults(func=cmd_classify)

    p_schedule = sub.add_parser(
        "schedule", help="replay a log through a protocol"
    )
    p_schedule.add_argument("log")
    p_schedule.add_argument(
        "--protocol", choices=sorted(PROTOCOLS), default="mt"
    )
    p_schedule.add_argument("--k", type=int, default=2)
    p_schedule.set_defaults(func=cmd_schedule)

    p_census = sub.add_parser("census", help="run the Fig. 4 region census")
    p_census.add_argument("--txns", type=int, default=3)
    p_census.add_argument("--items", default="ab")
    p_census.add_argument("--no-write-only", action="store_true")
    p_census.add_argument("--limit", type=int, default=None)
    p_census.set_defaults(func=cmd_census)

    p_protocols = sub.add_parser("protocols", help="list protocols")
    p_protocols.set_defaults(func=cmd_protocols)

    p_bench = sub.add_parser(
        "bench", help="run the consolidated benchmark scenarios"
    )
    p_bench.add_argument(
        "--quick", action="store_true", help="fewer seeds (CI smoke mode)"
    )
    p_bench.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="run only this scenario (repeatable); default: all",
    )
    p_bench.add_argument(
        "--out",
        default="BENCH_repro.json",
        help="output path (default: BENCH_repro.json)",
    )
    p_bench.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan scenario×seed cells out over N worker processes",
    )
    p_bench.add_argument(
        "--profile",
        action="store_true",
        help="attach per-scenario cProfile hotspot breakdowns to the JSON",
    )
    p_bench.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help="override worker-process count for windowed-plane scenarios "
        "(0 = in-process engines; forces --jobs 1 when N > 1)",
    )
    p_bench.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="W",
        help="override the admission window size for windowed-plane "
        "scenarios",
    )
    p_bench.add_argument(
        "--transport",
        choices=("pipe", "loopback", "tcp"),
        default=None,
        help="override the parallel-plane transport for windowed-plane "
        "scenarios (pipe = PR 6 multiprocessing pipes; loopback/tcp = "
        "the crash-recoverable 2PC data plane); requires --parallel",
    )
    p_bench.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    p_bench.set_defaults(func=cmd_bench)

    p_check = sub.add_parser(
        "check", help="conformance oracle: exhaustive sweep / fuzzing"
    )
    p_check.add_argument(
        "--exhaustive",
        nargs=3,
        type=int,
        metavar=("N", "Q", "M"),
        help="sweep every log of N txns x Q ops x M items",
    )
    p_check.add_argument(
        "--fuzz",
        type=int,
        metavar="CASES",
        help="differentially fuzz CASES random workloads",
    )
    p_check.add_argument(
        "--seed", type=int, default=0, help="fuzz campaign seed"
    )
    p_check.add_argument(
        "--no-shrink",
        action="store_true",
        help="report raw counterexamples without ddmin shrinking",
    )
    p_check.add_argument(
        "--shards",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        metavar="N",
        help="shard counts the pipeline service is fuzzed with "
        "(default: 1 2 4)",
    )
    p_check.add_argument(
        "--check-parallel",
        action="store_true",
        help="also fuzz the parallel execution plane: worker-process "
        "runs must be bit-identical to in-process windowed runs at "
        "every shard count (slower; spawns worker pools per case)",
    )
    p_check.add_argument(
        "--check-recovery",
        action="store_true",
        help="also fuzz the crash-recoverable data plane: loopback "
        "no-fault runs must be bit-identical to workers=0, and every "
        "crashed-and-recovered run (random fault plans per case) must "
        "equal the fault-free run with a DSR committed projection",
    )
    p_check.add_argument(
        "--check-mvcc",
        action="store_true",
        help="also fuzz the multiversion pipeline: protocol='mvmt' runs "
        "at every shard count must commit a view-equivalent projection "
        "(reads-from equals the serial replay in the scheduler's own "
        "serialization order) with zero read-induced aborts",
    )
    p_check.add_argument(
        "--limit",
        type=int,
        default=None,
        help="cap the number of canonical logs swept (smoke mode)",
    )
    p_check.add_argument("--json", action="store_true", help="JSON to stdout")
    p_check.add_argument(
        "--out", default=None, metavar="PATH", help="write JSON report here"
    )
    p_check.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="dump per-counterexample MT(2) event traces as JSONL",
    )
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)
