"""smoothgame benchmark: four workloads, end-to-end metrics and a layer trace.

Run from the repository root:

    python3 bench/run.py --workload game-standard --seed 1 --seconds 20 --trace 0

``--trace 0`` measures an untraced run and reports the end-to-end metrics.
Set-up (interpreter start, import, input generation, one warm-up job) is
timed three times in fresh processes. The workload's job list is then run
in whole passes until ``--seconds`` have gone by; each job's time is its
median over the passes, the job percentiles are Harrell-Davis estimates
over jobs, and ``ops_per_s`` is the median of the passes' rates.

``--trace 1`` runs the job list untraced and then traced (see
``layertrace.py``) for a number of passes fixed by ``--seconds``, reports
the per-layer metrics and the tracing overhead, and requires the traced
outputs to equal the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, raw timings and the first pass's per-job results.
The exit code is 0 only when every job passed its check and every pass
repeated the first pass's outputs; it is 2 when smoothgame cannot be
imported from this checkout's ``src/``.

smoothgame is used only through its public functions; nothing in it is
modified. Each run is one process, single-threaded from Python's side, with
BLAS pinned to one thread.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import bisect
import contextlib
import hashlib
import json
import math
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np
from scipy.special import betainc

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("game-standard", "game-noisy", "poly-build", "lemma-search")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120
TAIL_MIN_BEYOND = 10
# Seconds per untraced pass of each workload's job list on the reference
# machine. It sizes the traced run's fixed number of passes, which keeps its
# counts exact for a given seed and --seconds.
PASS_S = 5.5

# Machine-speed reference. Shared 2-core VMs drift by up to 40% over tens of
# seconds as neighbours load the host, far more than any bound could absorb.
# A fixed pure-Python loop is timed between jobs, every CAL_EVERY_S, and each
# reported time t is rescaled to the loop's nominal speed:
# t * CAL_NOMINAL_S / (median loop time around t). Raw figures go to the
# detail line.
CAL_ITERS = 200_000
CAL_NOMINAL_S = 0.017  # the loop's typical time on the reference machine
CAL_EVERY_S = 0.25
CAL_NEIGHBOURS = 3  # loop samples used on each side of a job


def import_smoothgame():
    """Import smoothgame from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import smoothgame
    except ImportError as exc:
        print(f"bench: cannot import smoothgame from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if pathlib.Path(smoothgame.__file__).resolve().parent.parent != src:
        print(f"bench: smoothgame imported from {smoothgame.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and one set-up repeat, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# machine speed


def _calibration_loop() -> int:
    total = 0
    for i in range(CAL_ITERS):
        total += i * i % 7
    return total


class SpeedReference:
    """Timed runs of the calibration loop, and the scale they imply."""

    def __init__(self):
        self.mids: list[float] = []  # midpoint of each loop run
        self.loop_s: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        _calibration_loop()
        t1 = time.perf_counter()
        self.mids.append(0.5 * (t0 + t1))
        self.loop_s.append(t1 - t0)

    def sample_if_due(self) -> None:
        if not self.mids or time.perf_counter() - self.mids[-1] >= CAL_EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Nominal over measured loop time, from the samples around [t0, t1]."""
        i = bisect.bisect_left(self.mids, t0)
        j = bisect.bisect_right(self.mids, t1)
        near = self.loop_s[max(0, i - CAL_NEIGHBOURS):i] + self.loop_s[j:j + CAL_NEIGHBOURS]
        return CAL_NOMINAL_S / statistics.median(near)


# ---------------------------------------------------------------------------
# set-up


def set_up(args, out_dir):
    """Input generation plus one warm-up job; what every invocation pays."""
    import workloads

    jobs = workloads.JOBS[args.workload](args.seed, args.tiny)
    ctx = workloads.Context(out_dir)
    jobs[0].check(jobs[0].execute(ctx))
    return jobs


def measure_setup(args, speed: SpeedReference) -> tuple[list[float], list[float]]:
    """Seconds from process start to the end of the warm-up, in fresh processes.

    Returns the raw samples and the samples at reference speed.
    """
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    if args.tiny:
        cmd.append("--tiny")
    samples, ref_samples = [], []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        speed.sample()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or line.strip() != "ready":
            sys.exit(f"bench: set-up probe failed with exit code {code}")
        speed.sample()
        samples.append(elapsed)
        ref_samples.append(elapsed * speed.scale(t0, t0 + elapsed))
    return samples, ref_samples


# ---------------------------------------------------------------------------
# running jobs


class Runs:
    """Timings and outcomes of passes over one job list."""

    def __init__(self, speed: SpeedReference):
        self.speed = speed
        self.timed: list[tuple[int, int, float, float]] = []  # job index, units, start, seconds
        self.failed = 0
        self.records: list = []
        self.facts: list[dict] = []

    def run(self, jobs, ctx, around=contextlib.nullcontext):
        """One pass: time each job's execute (inside ``around()``), then check it."""
        for index, job in enumerate(jobs):
            self.speed.sample_if_due()
            try:
                with around():
                    t0 = time.perf_counter()
                    raw = job.execute(ctx)
                    elapsed = time.perf_counter() - t0
                outcome = job.check(raw)
            except Exception:
                traceback.print_exc()
                self.failed += 1
                self.records.append(("error", index))
                continue
            self.timed.append((index, job.units, t0, elapsed))
            self.failed += not outcome.ok
            self.records.append(outcome.record)
            self.facts.append(outcome.facts)

    @property
    def attempted(self) -> int:
        return len(self.records)

    def seconds(self, ref: bool = True) -> list[float]:
        """Job times, rescaled to reference speed unless ``ref`` is off."""
        if not ref:
            return [s for _, _, _, s in self.timed]
        return [s * self.speed.scale(t0, t0 + s) for _, _, t0, s in self.timed]

    def rates(self, bounds: list[int], ref: bool = True) -> list[float]:
        """Work units per busy second of each pass; ``bounds`` are pass starts."""
        seconds = self.seconds(ref)
        out = []
        for a, b in zip(bounds, bounds[1:] + [len(seconds)]):
            busy = sum(seconds[a:b])
            if busy > 0:
                out.append(sum(u for _, u, _, _ in self.timed[a:b]) / busy)
        return out

    def per_job_ms(self, ref: bool = True) -> list[float]:
        """One time per job of the list: the median over its passes, in ms."""
        by_job: dict[int, list[float]] = {}
        for (index, _, _, _), s in zip(self.timed, self.seconds(ref)):
            by_job.setdefault(index, []).append(s)
        return sorted(1e3 * statistics.median(v) for v in by_job.values())

    def first_pass(self, n_jobs: int) -> tuple[list, bool]:
        """Outputs of the first pass, and whether every later pass repeated them."""
        first = self.records[:n_jobs]
        repeats = all(self.records[i:i + n_jobs] == first
                      for i in range(n_jobs, len(self.records), n_jobs))
        return first, repeats


def percentile(sorted_ms: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of all
    order statistics, far steadier than one order statistic on few jobs."""
    n = len(sorted_ms)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), sorted_ms))


def tail(sorted_ms: list[float]) -> tuple[float, int]:
    """The highest percentile with at least 10 jobs beyond it, and that percentile.

    With too few jobs for that (tiny runs only) it is the maximum, recorded
    as percentile 100.
    """
    n = len(sorted_ms)
    if n <= TAIL_MIN_BEYOND:
        return sorted_ms[-1], 100
    pct = math.floor(100 * (n - TAIL_MIN_BEYOND) / n)
    return percentile(sorted_ms, pct / 100), pct


def environment(args) -> dict:
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
        "blas_threads": int(BLAS_THREADS), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, jobs, ctx, speed, setup_raw, setup_ref) -> tuple[Runs, dict, dict]:
    """Whole passes over the job list until ``--seconds`` have gone by.

    Job times are per-job medians over the passes; the percentiles are over
    jobs, and ops_per_s is the median of the passes' rates.
    """
    runs = Runs(speed)
    bounds = []  # index of each pass's first timed job
    start = time.perf_counter()
    while True:
        bounds.append(len(runs.timed))
        runs.run(jobs, ctx)
        if time.perf_counter() - start >= args.seconds:
            break
    speed.sample()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = runs.per_job_ms()
    tail_ms, tail_pct = tail(times)
    metrics = {
        "setup_s": metric(statistics.median(setup_ref), "s"),
        "ops_per_s": metric(statistics.median(runs.rates(bounds)), "1/s"),
        "job_ms.p50": metric(percentile(times, 0.5), "ms"),
        "job_ms.tail": metric(tail_ms, "ms"),
        "pass_frac": metric((runs.attempted - runs.failed) / runs.attempted, "fraction"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    raw_times = runs.per_job_ms(ref=False)
    detail = {
        "passes": len(bounds), "jobs_per_pass": len(jobs), "tail_percentile": tail_pct,
        "job_ms": times,
        "raw": {"setup_s": statistics.median(setup_raw),
                "ops_per_s": statistics.median(runs.rates(bounds, ref=False)),
                "job_ms.p50": percentile(raw_times, 0.5), "job_ms.tail": tail(raw_times)[0]},
        "setup_samples_s": setup_raw,
        "calibration_loop_s": statistics.median(speed.loop_s),
        "calibration_samples": len(speed.loop_s),
    }
    return runs, metrics, detail


# ---------------------------------------------------------------------------
# traced run


def traced(args, jobs, ctx, speed) -> tuple[Runs, dict, dict]:
    """Untraced then traced passes over one fixed job list; outputs must match.

    The job list depends only on the seed and ``--seconds``, so the counts
    repeat exactly for a given pair.
    """
    import layertrace
    import workloads

    n_passes = 1 if args.tiny else max(1, round(args.seconds / (2 * PASS_S)))
    plain = Runs(speed)
    for _ in range(n_passes):
        plain.run(jobs, ctx)
    tracer = layertrace.Tracer()
    traced_ctx = workloads.Context(ctx.out_dir, tracer)
    runs = Runs(speed)
    for _ in range(n_passes):
        runs.run(jobs, traced_ctx, tracer.installed)
    speed.sample()
    metrics = layer_metrics(tracer, runs)
    metrics["trace.overhead_ratio"] = metric(sum(runs.seconds()) / sum(plain.seconds()), "ratio")
    detail = {"passes": n_passes, "jobs_per_pass": len(jobs),
              "traced_equals_untraced": runs.records == plain.records,
              "untraced_attempted": plain.attempted, "untraced_failed": plain.failed,
              "untraced_s": sum(plain.seconds(ref=False)), "traced_s": sum(runs.seconds(ref=False))}
    return runs, metrics, detail


def layer_metrics(tracer, runs: Runs) -> dict:
    from smoothgame.inequalities import GAP_IDS

    out = {}

    def calls_and_s(name, span=None):
        span = span or name
        out[f"{name}.calls"] = metric(tracer.calls[span], "count")
        out[f"{name}.s"] = metric(tracer.busy[span], "s")

    calls_and_s("interpolation.insert")
    out["interpolation.insert.elems_copied"] = metric(
        tracer.counts["interpolation.insert.elems_copied"], "count")
    calls_and_s("interpolation.feasible_interval")
    evals = tracer.calls["interpolation.solver.eval"]
    out["interpolation.solver.evals_per_solve"] = metric(
        evals / tracer.bisection_solves if tracer.bisection_solves else 0.0, "count")
    calls_and_s("interpolation.action_increment")
    calls_and_s("interpolation.eval")
    calls_and_s("interpolation.q_action")

    quarters = [1e6 * s / n if n else 0.0 for s, n in zip(tracer.quarter_s, tracer.quarter_rounds)]
    for i, us in enumerate(quarters, 1):
        out[f"engine.round_us.q{i}"] = metric(us, "us")
    out["engine.round_growth"] = metric(quarters[3] / quarters[0] if quarters[0] else 0.0, "ratio")
    out["engine.run_game.s"] = metric(tracer.busy["engine.run_game"], "s")
    out["engine.self.s"] = metric(tracer.self_time["engine.run_game"], "s")
    out["engine.write_outputs.s"] = metric(tracer.busy["engine.write_outputs"], "s")
    out["engine.write_outputs.bytes"] = metric(
        sum(f.get("write_bytes", 0) for f in runs.facts), "bytes")

    calls_and_s("learners.predict")
    calls_and_s("learners.observe")
    out["learners.stage_resets"] = metric(sum(f.get("stage_resets", 0) for f in runs.facts), "count")
    calls_and_s("adversaries.next_query")
    calls_and_s("adversaries.reveal")
    calls_and_s("adversaries.verify_legality")

    for name in ("bernstein.elevated", "bernstein.basis_matrix"):
        calls_and_s(name)
        out[f"{name}.entries"] = metric(tracer.counts[f"{name}.entries"], "count")
    out["bernstein.q_action_poly.s"] = metric(tracer.busy["bernstein.q_action_poly"], "s")
    out["bernstein.roots.s"] = metric(tracer.busy["bernstein.roots"], "s")
    out["bernstein.composite_fallbacks"] = metric(tracer.calls["bernstein.composite_fallback"], "count")

    for name in ("approx", "exact", "weighted_combine"):
        out[f"polyapprox.{name}.s"] = metric(tracer.busy[f"polyapprox.{name}"], "s")
    degrees = sorted(f["exact_degree"] for f in runs.facts if "exact_degree" in f)
    out["polyapprox.exact_degree.p50"] = metric(statistics.median(degrees) if degrees else 0, "count")
    out["polyapprox.exact_degree.max"] = metric(degrees[-1] if degrees else 0, "count")

    for gap_id in GAP_IDS:
        out[f"inequalities.search.{gap_id}.s"] = metric(
            tracer.busy[f"inequalities.search.{gap_id}"], "s")
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    import_smoothgame()
    with tempfile.TemporaryDirectory(prefix=".bench-out-", dir=ROOT) as tmp:
        out_dir = pathlib.Path(tmp)
        if args.setup_probe:
            set_up(args, out_dir)
            print("ready", flush=True)
            return 0
        import workloads

        speed = SpeedReference()
        if args.trace:
            jobs = set_up(args, out_dir)
            runs, metrics, detail = traced(args, jobs, workloads.Context(out_dir), speed)
        else:
            setup_raw, setup_ref = measure_setup(args, speed)
            jobs = set_up(args, out_dir)
            runs, metrics, detail = end_to_end(args, jobs, workloads.Context(out_dir), speed,
                                               setup_raw, setup_ref)
    first, repeated = runs.first_pass(len(jobs))
    attempted = runs.attempted + detail.get("untraced_attempted", 0)
    failed = runs.failed + detail.get("untraced_failed", 0)
    correct = failed == 0 and repeated and detail.get("traced_equals_untraced", True)
    detail.update(env=environment(args), passes_repeat_outputs=repeated,
                  records_digest=hashlib.sha256(repr(first).encode()).hexdigest()[:16],
                  records=first)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
