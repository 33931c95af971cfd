"""Seed-to-seed spread of the end-to-end metrics, and a baseline pass.

Runs ``run.py --workload W --seed S --trace 0`` once per (seed,
workload), round-robin over workloads, exactly as BENCHMARK.json drives
it.  For each metric of each workload it reports the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
quartile distance as a share of the median.  A metric passes when its
spread is under a third of its bound; ``setup_s`` is exempt.  With
``--against`` it also checks that no median is worse than the earlier
pass's by more than the bound.  The committed baseline passes under
``results/`` were written by this script::

    python3 benchmarks/e2e/spread.py --seeds 1-10 --out benchmarks/e2e/results/pass1.json
    python3 benchmarks/e2e/spread.py --seeds 11-20 --out benchmarks/e2e/results/pass2.json \\
        --against benchmarks/e2e/results/pass1.json

Exits 1 if any run fails or any check does not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Runs one full evaluation of BENCHMARK.json makes, as
#: ``fixed + per_workload * workloads``; together they must end within
#: EVALUATION_LIMIT_S.
EVALUATION_RUNS = (4, 22)
EVALUATION_LIMIT_S = 3420


def _seeds(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _host() -> Dict[str, Any]:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _run(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    duration = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} failed (exit {done.returncode})")
    return {
        "seed": seed,
        "duration_s": duration,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"),
                        help="inclusive range, e.g. 1-10")
    parser.add_argument("--workload", action="append",
                        help="limit to these workloads (repeatable)")
    parser.add_argument("--out", type=Path, help="write the pass as JSON here")
    parser.add_argument("--against", type=Path,
                        help="an earlier pass whose medians this one must hold")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    runs: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    for seed in args.seeds:
        for workload in workloads:
            run = _run(workload, seed, spec["run_seconds"])
            runs[workload].append(run)
            print(f"{workload:<16} seed {seed:>3} {run['duration_s']:6.1f} s  "
                  + "  ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()),
                  flush=True)

    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}
    ok = True
    summary: Dict[str, Dict[str, Any]] = {}
    print(f"\n{'workload':<16} {'metric':<16} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'limit':>6} {'vs-earlier':>10}")
    for workload in workloads:
        summary[workload] = {}
        for name, metric in bounds.items():
            values = [run["metrics"][name] for run in runs[workload]]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            limit = metric["bound"] / 3
            row = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            verdict = name == "setup_s" or spread < limit
            change = ""
            if workload in earlier:
                before = earlier[workload]["summary"][name]["median"]
                worse = (before - median if metric["better"] == "higher"
                         else median - before) / before
                row["worse_than_earlier"] = worse
                verdict = verdict and worse <= metric["bound"]
                change = f"{worse:+.3f}"
            ok = ok and verdict
            summary[workload][name] = row
            print(f"{workload:<16} {name:<16} {median:>12.4f} {q1:>12.4f} "
                  f"{q3:>12.4f} {spread:>7.3f} {limit:>6.3f} {change:>10}"
                  f"{'' if verdict else '  FAIL'}")

    durations = [run["duration_s"] for w in workloads for run in runs[w]]
    fixed, per_workload = EVALUATION_RUNS
    runs_needed = fixed + per_workload * len(workloads)
    projected = statistics.fmean(durations) * runs_needed
    print(f"\nmean run {statistics.fmean(durations):.1f} s, longest "
          f"{max(durations):.1f} s; {runs_needed} runs ≈ {projected:.0f} s "
          f"(limit {EVALUATION_LIMIT_S} s)")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "host": _host(),
            "run_seconds": spec["run_seconds"],
            "seeds": args.seeds,
            "workloads": {
                w: {"runs": runs[w], "summary": summary[w]} for w in workloads
            },
        }, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
