"""The repo's benchmark: five workloads, end-to-end metrics, a per-layer trace.

One run, as the benchmark driver calls it::

    python3 benchmarks/suite/run.py --workload static_8k --seed 1 --seconds 20 --trace 0

prints progress on standard error and, as the last line of standard output,
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`` with
every ``end_to_end`` metric of BENCHMARK.json (``--trace 0``) or every
``per_layer`` metric (``--trace 1``).

Without ``--trace`` it runs the whole suite: per workload one traced run,
then ``--repeats`` untraced runs, and prints median, min and max of every
metric.  ``--selfcheck`` does that twice and compares the two sets of
medians against the bounds in BENCHMARK.json.  README.md has the glossary.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 170
SHM = Path("/dev/shm")


def definition() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


#: glibc returns every freed block above 128 KiB to the kernel and faults the
#: next one in again as zeroed pages.  On this VM the price of such a fault
#: swings fivefold with the state of the host's memory (query_8k, same seed:
#: 1.1 to 5.3 s of system time in a 10 s run), which the speed probe cannot
#: see.  Blocks up to 32 MiB, the largest threshold glibc accepts, stay in the
#: child's heap instead: 1.2 to 1.6 s.
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(4 << 30),
    "MALLOC_TOP_PAD_": str(64 << 20),
}


def child_env() -> Dict[str, str]:
    """The parent's environment without REPRO_* knobs; BLAS and malloc pinned."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    scrubbed = sorted(set(os.environ) - set(env))
    if scrubbed:
        print(f"scrubbed from the environment: {', '.join(scrubbed)}", file=sys.stderr)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env.update(MALLOC_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def shm_segments() -> set:
    return set(os.listdir(SHM)) if SHM.is_dir() else set()


def run_once(workload: str, seed: int, seconds: float, traced: bool, tiny: bool,
             trace_out: Optional[str]) -> dict:
    """Run one child to its end and return its result, leak check included."""
    spec = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": traced, "tiny": tiny,
        "trace_out": trace_out or str(OUT / f"trace-{workload}.json"),
    }
    shm_before = shm_segments()
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload}: child exited with code {done.returncode}; no numbers")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    leaked = shm_segments() - shm_before
    if leaked:
        result["notes"].append(f"leaked /dev/shm segments: {sorted(leaked)}")
        result["attempted"] += len(leaked)
        result["failed"] += len(leaked)
        result["correct"] = False
    for note in result["notes"]:
        print(f"{workload}: {note}", file=sys.stderr)
    return result


def driver_line(result: dict, declared: List[dict]) -> str:
    """The result line of the driver contract: exactly the declared metrics."""
    metrics = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in declared
    }
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    })


# -- the whole suite -------------------------------------------------------------


def _git(*args: str) -> str:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def stamp(seed: int) -> dict:
    """Commit, machine and library versions, so that a row is attributable."""
    import numpy
    import scipy

    cpuinfo = Path("/proc/cpuinfo")
    models = [
        line.split(":", 1)[1].strip()
        for line in (cpuinfo.read_text().splitlines() if cpuinfo.exists() else ())
        if line.startswith("model name")
    ]
    return {
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(_git("status", "--porcelain")),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": models[0] if models else platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "network": "loopback (127.0.0.1); no traffic left the host",
    }


def run_suite(args, bench: dict) -> dict:
    """Per workload: one traced run, then `repeats` untraced runs."""
    rows = {}
    for name in args.workload or [w["name"] for w in bench["workloads"]]:
        print(f"== {name}: 1 traced + {args.repeats} untraced runs", file=sys.stderr)
        traced = run_once(name, args.seed, bench["run_seconds"], True, args.tiny, args.trace_out)
        runs = [
            run_once(name, args.seed, bench["run_seconds"], False, args.tiny, None)
            for _ in range(args.repeats)
        ]
        end_to_end = {}
        for metric in bench["end_to_end"]:
            values = [run["metrics"][metric["name"]] for run in runs]
            end_to_end[metric["name"]] = {
                "median": statistics.median(values), "min": min(values), "max": max(values),
                "n": len(values), "unit": metric["unit"],
            }
        rows[name] = {
            "comparable": not args.tiny,
            "size": traced["size"],
            "correct": traced["correct"] and all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "missing_spans": traced["missing_spans"],
        }
    return rows


def print_rows(rows: dict, bench: dict) -> None:
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name, row in rows.items():
        note = "" if row["comparable"] else "  (tiny size: not comparable)"
        print(f"\n{name}: correct={row['correct']} failed={row['failed']}/{row['attempted']}{note}")
        for metric, v in row["end_to_end"].items():
            print(f"  {metric:<32} {v['median']:>14.6g} {v['unit']:<6}"
                  f" min {v['min']:.6g} max {v['max']:.6g} n={v['n']}")
        for metric, value in row["per_layer"].items():
            print(f"    {metric:<38} {value:>14.6g} {units.get(metric, '')}")
        for path in row["missing_spans"]:
            print(f"    span target did not resolve: {path}")


#: Simulated figures of the traced run: the same seed must give the same bits.
EXACT_FIGURES = ("traffic_reduction_pct", "response_reduction_pct", "ace_overhead_per_round")


def selfcheck(first: dict, second: dict, bench: dict) -> List[dict]:
    """Compare two sets of medians of the same code against the bounds."""
    verdicts = []
    for name in first:
        if name != "live_64":  # realtime delivery order is not seeded
            for figure in EXACT_FIGURES:
                a, b = first[name]["per_layer"][figure], second[name]["per_layer"][figure]
                verdicts.append({
                    "workload": name, "metric": figure, "first": a, "second": b,
                    "worse_by": abs(b - a) / abs(a) if a else float(a != b), "bound": 0.0, "ok": a == b,
                })
        for metric in bench["end_to_end"]:
            a = first[name]["end_to_end"][metric["name"]]["median"]
            b = second[name]["end_to_end"][metric["name"]]["median"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            verdicts.append({
                "workload": name, "metric": metric["name"], "first": a, "second": b,
                "worse_by": worse, "bound": metric["bound"], "ok": worse <= metric["bound"],
            })
    return verdicts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time of one run (driver)")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="one run, driver output")
    parser.add_argument("--repeats", type=int, default=3, help="untraced runs per workload")
    parser.add_argument("--trace-out", help="where a traced run writes its spans")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes; not comparable")
    args = parser.parse_args()

    if not (SRC / "repro").is_dir():
        print(f"{SRC}/repro not found: nothing to measure", file=sys.stderr)
        return 2
    bench = definition()
    known = [w["name"] for w in bench["workloads"]]
    for name in args.workload or []:
        if name not in known:
            parser.error(f"unknown workload {name!r}; choose from {known}")

    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace takes exactly one --workload")
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        result = run_once(
            args.workload[0], args.seed, seconds, bool(args.trace), args.tiny, args.trace_out
        )
        print(driver_line(result, bench["per_layer" if args.trace else "end_to_end"]))
        return 0

    if args.repeats < 3 and not args.tiny:
        parser.error("--repeats must be at least 3")
    rows = run_suite(args, bench)
    print_rows(rows, bench)
    record = {"stamp": stamp(args.seed), "rows": rows}
    ok = all(row["correct"] for row in rows.values())
    if args.selfcheck:
        second = run_suite(args, bench)
        record["selfcheck"] = verdicts = selfcheck(rows, second, bench)
        print("\nselfcheck: second set of medians against the first")
        for v in verdicts:
            print(f"  {v['workload']:<10} {v['metric']:<20} {v['first']:>12.6g} {v['second']:>12.6g}"
                  f" worse by {100 * v['worse_by']:+6.2f}% (bound {100 * v['bound']:.0f}%)"
                  f" {'ok' if v['ok'] else 'FAIL'}")
        ok = ok and all(v["ok"] for v in verdicts) and all(r["correct"] for r in second.values())
    OUT.mkdir(exist_ok=True)
    (OUT / "latest.json").write_text(json.dumps(record, indent=1))
    print(f"\n{json.dumps(record['stamp'])}\nwritten to {OUT / 'latest.json'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
