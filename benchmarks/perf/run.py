"""The repository's benchmark: one command, every metric by name.

``python3 benchmarks/perf/run.py --workload W --seed S --seconds T --trace 0|1``
measures one workload in this process and prints every metric with its
unit, then — as the last line — one JSON object ``{"correct",
"attempted", "failed", "metrics"}``: the end-to-end metrics with
``--trace 0``, the per-layer ledger with ``--trace 1``.  Without
``--workload`` it runs every workload, untraced and then traced, each in
a fresh subprocess, one at a time (this host has two cores; a second
busy process would be measured too).  ``--check-stability`` runs the
untraced set twice on each of two seeds and fails if any end-to-end
metric moves by more than its own bound.

A pass is one trip of the workload's frozen stream through the front
door (``TransactionService.submit_programs()`` + ``run()``).  Passes
repeat until ``--seconds`` have gone by; timings are medians over the
passes, counts must repeat exactly from pass to pass.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch space inside the checkout: write-ahead logs, raw spans.
TMP_DIR = HERE / ".tmp"
OUT_DIR = HERE / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Set-ups per run; ``setup_s`` is their median plus the one-off import.
SETUP_REPEATS = 3
DEFAULT_SECONDS = 10
#: ``--check-stability``: the second seed was not used for sizing.
STABILITY_SEEDS = (1, 20260928)


if not __package__:
    # Started as a script: make the checkout's ``src`` (the program) and
    # root (this package) importable, and drop the script's directory
    # from the path — its ``trace.py`` must not shadow the standard
    # library's.
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(
            f"{ROOT / 'src' / 'repro'} not found: the benchmark measures "
            "the program in this checkout and cannot run without it"
        )
    sys.path[:] = [
        str(ROOT / "src"),
        str(ROOT),
        *(entry for entry in sys.path if Path(entry or ".").resolve() != HERE),
    ]

_import_started = perf_counter()
from benchmarks.perf import ledger, trace, verify, workloads  # noqa: E402

#: Seconds importing the harness and, through it, the program took.
IMPORT_S = perf_counter() - _import_started


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def measure(
    workload: workloads.Workload, seed: int, seconds: float, traced: bool
) -> dict[str, Any]:
    """Set up, run passes for *seconds*, verify; returns ``{"correct",
    "attempted", "failed", "metrics", "error", "passes"}`` with the
    end-to-end metrics, or the per-layer ledger when *traced*."""
    TMP_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=TMP_DIR)
    service = None
    try:
        setups = []
        for attempt in range(SETUP_REPEATS):
            if service is not None:
                service.close()
            start = perf_counter()
            inputs = workloads.generate(workload, seed)
            state_dir = os.path.join(scratch, f"state{attempt}")
            service = workloads.build_service(workload, state_dir)
            workloads.warm_up(
                workload, inputs, seed, os.path.join(scratch, f"warm{attempt}")
            )
            setups.append(perf_counter() - start)

        passes: list[workloads.Pass] = []
        layers: list[dict[str, float]] = []
        error = None
        started = perf_counter()
        while not passes or perf_counter() - started < seconds:
            one = workloads.run_pass(workload, service, inputs, seed)
            error = error or _verify(workload, service, one, passes)
            passes.append(one)
            if traced:
                tracer = trace.Tracer()
                with trace.tracing(tracer):
                    shadow = workloads.run_pass(workload, service, inputs, seed)
                error = error or _verify(workload, service, shadow, passes)
                layers.append(
                    ledger.layer_metrics(
                        workload, service, shadow, tracer, one.wall_s, state_dir
                    )
                )
                if len(layers) == 1:
                    OUT_DIR.mkdir(exist_ok=True)
                    tracer.dump_raw(
                        str(OUT_DIR / f"{workload.name}-seed{seed}.spans.jsonl")
                    )
                    for target in tracer.missing:
                        print(f"trace: no such target {target}", file=sys.stderr)
        first = passes[0]
        if traced:
            metrics = {
                name: statistics.median(layer[name] for layer in layers)
                for name in layers[0]
            }
        else:
            metrics = {
                "commit_txn_per_s": statistics.median(
                    one.commit_txn_per_s for one in passes
                ),
                "commit_latency_p50_ticks": first.counts["latency_p50"],
                "wasted_op_share": first.wasted_op_share,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0,
                "setup_s": IMPORT_S + statistics.median(setups),
            }
        return {
            "correct": error is None,
            "attempted": first.attempted,
            "failed": first.failed,
            "metrics": metrics,
            "error": error,
            "passes": len(passes),
        }
    finally:
        if service is not None:
            service.close()
        shutil.rmtree(scratch, ignore_errors=True)


def _verify(
    workload: workloads.Workload,
    service: Any,
    one: workloads.Pass,
    earlier: Sequence[workloads.Pass],
) -> str | None:
    """Check one pass (after its timing) and drop its reports, so that
    memory holds one pass at a time; returns what is wrong, or None."""
    try:
        scheduler = service.scheduler if workload.multiversion else None
        for submitted, report in one.runs:
            verify.check_run(submitted, report, scheduler)
        if earlier and earlier[0].counts != one.counts:
            changed = sorted(
                name
                for name in one.counts
                if one.counts[name] != earlier[0].counts.get(name)
            )
            raise verify.VerificationError(
                f"counts differ between passes over the same inputs: {changed}"
            )
    except verify.VerificationError as problem:
        return str(problem)
    finally:
        one.runs.clear()
    return None


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _spec() -> dict[str, Any]:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def _units(spec: dict[str, Any], traced: bool) -> dict[str, str]:
    group = spec["per_layer"] if traced else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in group}


def _contract_line(outcome: dict[str, Any], units: dict[str, str]) -> str:
    """The driver's result object; metrics in ``BENCHMARK.json`` order."""
    return json.dumps(
        {
            "correct": outcome["correct"],
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": {
                name: {"value": outcome["metrics"][name], "unit": unit}
                for name, unit in units.items()
            },
        }
    )


def _print_metrics(title: str, metrics: dict[str, float], units: dict[str, str]) -> None:
    print(title)
    for name, unit in units.items():
        print(f"  {name:<36} {metrics[name]:>16.6g} {unit}")


# ----------------------------------------------------------------------
# Every workload, one subprocess each
# ----------------------------------------------------------------------
def _run_child(name: str, seed: int, seconds: float, traced: bool) -> dict[str, Any]:
    """One workload in a fresh interpreter; returns its result object."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if traced else "0",
    ]  # fmt: skip
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{name}: no result (exit code {done.returncode})")
    result = json.loads(lines[-1])
    result["exit_code"] = done.returncode
    return result


def run_all(seed: int, seconds: float, out: str | None) -> int:
    """Untraced then traced run of every workload; prints every metric."""
    spec = _spec()
    results: dict[str, Any] = {}
    ok = True
    for entry in spec["workloads"]:
        name = entry["name"]
        results[name] = {}
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            result = _run_child(name, seed, seconds, traced)
            ok = ok and result["correct"] and result["exit_code"] == 0
            results[name][key] = {
                metric: value["value"] for metric, value in result["metrics"].items()
            }
            results[name].update(
                correct=result["correct"],
                attempted=result["attempted"],
                failed=result["failed"],
            )
            _print_metrics(
                f"{name} [{key}, seed {seed}]",
                results[name][key],
                _units(spec, traced),
            )
    problems = _same_decisions(
        results.get("open_zipf_shard4_inline"), results.get("open_zipf_shard4_2pc")
    )
    for problem in problems:
        print(f"FAILED: {problem}")
    if out is not None:
        payload = {"host": _host(), "seed": seed, "seconds": seconds, "workloads": results}
        Path(out).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0 if ok and not problems else 1


#: The 2PC plane must decide exactly as the inline plane does.
SAME_DECISIONS = ("service.aborts", "parallel.windows", "parallel.messages")


def _same_decisions(inline: Any, durable: Any) -> list[str]:
    if not inline or not durable:
        return []
    return [
        f"{name}: shard4_inline {inline['per_layer'][name]} != shard4_2pc "
        f"{durable['per_layer'][name]}"
        for name in SAME_DECISIONS
        if inline["per_layer"][name] != durable["per_layer"][name]
    ]


def _host() -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        ).stdout.strip()  # fmt: skip
    except OSError:
        commit = ""
    return {
        "commit": commit or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
    }


# ----------------------------------------------------------------------
# --check-stability
# ----------------------------------------------------------------------
def check_stability(seconds: float) -> int:
    """Two sets of untraced runs of the same code per seed must agree on
    every end-to-end metric within the metric's own bound."""
    spec = _spec()
    bad = 0
    for seed in STABILITY_SEEDS:
        for entry in spec["workloads"]:
            name = entry["name"]
            first, second = (
                _run_child(name, seed, seconds, traced=False) for _ in range(2)
            )
            if not (first["correct"] and second["correct"]):
                bad += 1
                print(f"WRONG seed {seed} {name}: an output failed verification")
            for metric in spec["end_to_end"]:
                key, bound = metric["name"], metric["bound"]
                a, b = (run["metrics"][key]["value"] for run in (first, second))
                worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
                verdict = "ok" if abs(worse) <= bound else "MOVED"
                bad += verdict != "ok"
                print(
                    f"{verdict:5} seed {seed} {name:<28} {key:<26}"
                    f" {a:>12.6g} {b:>12.6g} {worse:+.2%} (bound {bound:.0%})"
                )
    return 1 if bad else 0


# ----------------------------------------------------------------------
def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload, measured in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="all workloads: also write the results here")
    parser.add_argument("--check-stability", action="store_true")
    args = parser.parse_args(argv)

    if args.check_stability:
        return check_stability(args.seconds)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.out)

    workload = workloads.BY_NAME.get(args.workload)
    if workload is None:
        parser.error(
            f"unknown workload {args.workload!r}; known: {sorted(workloads.BY_NAME)}"
        )
    outcome = measure(workload, args.seed, args.seconds, bool(args.trace))
    units = _units(_spec(), bool(args.trace))
    _print_metrics(
        f"{workload.name} [seed {args.seed}, {outcome['passes']} passes]",
        outcome["metrics"],
        units,
    )
    if outcome["error"]:
        print(f"FAILED verification: {outcome['error']}")
    print(_contract_line(outcome, units))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
