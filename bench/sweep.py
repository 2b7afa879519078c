"""Run the benchmark over several seeds and write the results to one file.

    python3 bench/sweep.py --label seed --seeds 1-10 [--workload NAME ...] [--trace-seed 1]

Runs ``bench/run.py`` once per workload and seed, one run at a time, and
writes ``bench/results/<label>.json``: every run's metrics and detail line,
and per workload and metric the median, the quartiles and their distance
as a share of the median (the spread). With ``--trace-seed`` it adds one
traced run per workload, whose job list and counts are fixed by that seed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        sys.exit(f"{workload} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr}")
    detail = json.loads(lines[-2])["detail"]
    return {"seed": seed, "exit": proc.returncode, "result": json.loads(lines[-1]), "detail": detail}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": runs[0]["result"]["metrics"][name]["unit"]}
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace-seed", type=int, default=None)
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    report = {"label": args.label, "seconds": seconds, "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = [run_once(workload, seed, seconds, 0) for seed in args.seeds]
        for r in runs:
            r["detail"].pop("records")
        entry = {"summary": summarize(runs), "runs": runs}
        if args.trace_seed is not None:
            entry["traced"] = run_once(workload, args.trace_seed, seconds, 1)
        report["workloads"][workload] = entry
        for name, s in entry["summary"].items():
            print(f"{workload:14s} {name:12s} median {s['median']:.6g} {s['unit']:8s} "
                  f"spread {s['spread']:.3f}", flush=True)
    out = BENCH / "results" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    ok = all(r["exit"] == 0 and r["result"]["correct"]
             for w in report["workloads"].values() for r in w["runs"] + [w.get("traced")] if r)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
