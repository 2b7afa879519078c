"""Batch driver: single games, bound sweeps, inequality searches, poly builds.

Every command reads a JSON config, writes CSV/JSON artifacts into an output
directory, and exits 0 on success, 1 on a config problem, 2 when an
adversary broke the rules, 3 when a certified bound was violated, and 4 on
an internal fault (a run aborted with a ``RuntimeError``, such as a learner
protocol violation or a diverged endpoint search; in ``simulate``, whose
config and players are checked before the run, also a ``ValueError``).
Outputs are deterministic for a fixed config and seed: sweep cells may run
in parallel but results are merged in sorted cell order, and files carry no
timestamps.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import io
import json
import pathlib
import sys

from . import __version__
from .engine import (
    GameConfig,
    IllegalAdversaryError,
    build_players,
    run_game,
    write_outputs,
)
from .inequalities import GAP_IDS, search_near_violation
from .interpolation import SampleSet, q_action
from .bernstein import DegreeCapError, _check_finite_q, q_action_poly
from .polyapprox import approx_interpolant_poly, exact_interpolant_poly

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ILLEGAL = 2
EXIT_VIOLATION = 3
EXIT_INTERNAL = 4

# The certified bounds the sweeps and ``report`` check, and the absolute
# slack every such check allows for rounding.
CERTIFIED_BOUNDS = {
    "epsilon_ceiling": lambda eps: 6.0 / eps,  # linint vs greedy at p = q = 1 + eps
    "standard_unit": lambda: 1.0,              # linint vs greedy, p, q >= 2
    "forced_lower": lambda eta: 2 * eta + 1,   # scripted liar, p >= 2
    "staged_upper": lambda eta: 12 * eta + 6,  # staged learner vs any liar, p, q >= 2
}
BOUND_SLACK = 1e-9

COMMANDS = ("simulate", "sweep-epsilon", "sweep-eta", "verify-lemmas", "poly-build", "report")


class ConfigError(ValueError):
    pass


def _load_config(path: str, allowed: dict) -> dict:
    """Read a JSON object and validate keys against allowed (name -> default)."""
    try:
        raw = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = dict(allowed)
    merged.update(raw)
    missing = [k for k, v in merged.items() if v is _REQUIRED]
    if missing:
        raise ConfigError(f"missing config keys: {missing}")
    return merged


_REQUIRED = object()


def _bound_violations(header: list[str], rows: list[list]) -> int:
    """Broken certified bounds in a sweep table; empty cells carry no bound.

    Cells may be numbers or the text a CSV reader returns.
    """
    col = {name: i for i, name in enumerate(header)}
    bad = 0
    for r in rows:
        ratio = r[col["ratio"]] if "ratio" in col else ""
        if ratio != "" and float(ratio) > 1.0 + BOUND_SLACK:
            bad += 1
        if "forced_lower_bound" in col:
            observed = float(r[col["observed_total"]])
            lower, upper = r[col["forced_lower_bound"]], r[col["upper_bound"]]
            if lower != "" and observed < float(lower) - BOUND_SLACK:
                bad += 1
            if upper != "" and observed > float(upper) + BOUND_SLACK:
                bad += 1
    return bad


def _write_csv(path: pathlib.Path, header: list[str], rows: list[list], comment: str = "") -> None:
    buf = io.StringIO()
    if comment:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buf.getvalue())


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    spec = _load_config(args.config, {
        "p": _REQUIRED, "q": _REQUIRED, "rounds": _REQUIRED,
        "learner": _REQUIRED, "adversary": _REQUIRED,
        "eta": 0, "seed": None, "duplicate_policy": "reject",
        "uncounted_rounds": None, "learner_options": {}, "adversary_options": {},
    })
    if args.seed is not None:
        spec["seed"] = args.seed
    spec["seed"] = spec["seed"] or 0
    try:
        config = GameConfig.make(
            p=spec["p"], q=spec["q"], rounds=spec["rounds"], eta=spec["eta"],
            learner=spec["learner"], adversary=spec["adversary"], seed=spec["seed"],
            duplicate_policy=spec["duplicate_policy"],
            uncounted_rounds=spec["uncounted_rounds"],
            learner_options=spec["learner_options"],
            adversary_options=spec["adversary_options"],
        )
        build_players(config)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    try:
        tr = run_game(config)
    except ValueError as exc:
        print(f"internal fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    write_outputs(tr, args.out)
    if tr.legality is False:
        print("adversary failed post-hoc legality certification", file=sys.stderr)
        return EXIT_ILLEGAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweeps


def _epsilon_cell(cell):
    eps, policy, seed, rounds = cell
    config = GameConfig.make(
        p=1.0 + eps, q=1.0 + eps, rounds=rounds, eta=0,
        learner="linint", adversary="greedy", seed=seed,
        adversary_options={"query_policy": policy},
    )
    tr = run_game(config)
    bound = CERTIFIED_BOUNDS["epsilon_ceiling"](eps)
    return [eps, policy, seed, tr.counted_total, bound, tr.counted_total / bound]


def cmd_sweep_epsilon(args) -> int:
    spec = _load_config(args.config, {
        "epsilons": [0.1, 0.25, 0.5],
        "rounds": 1000,
        "seeds": [0, 1, 2],
        "policies": ["widest-gap-midpoint", "uniform-random", "fixed-sequence"],
    })
    cells = sorted(
        (float(e), str(pol), int(sd), int(spec["rounds"]))
        for e in spec["epsilons"] for pol in spec["policies"] for sd in spec["seeds"]
    )
    rows = _run_cells(_epsilon_cell, cells, args.workers)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = ["epsilon", "policy", "seed", "observed_total", "bound", "ratio"]
    _write_csv(
        out / "sweep_epsilon.csv",
        header,
        rows,
        comment="columns: epsilon vs counted error total and the 6/epsilon ceiling",
    )
    return EXIT_VIOLATION if _bound_violations(header, rows) else EXIT_OK


def _eta_cell(cell):
    eta, rounds, liar_seeds, p, q = cell
    if eta == 0:
        config = GameConfig.make(p=p, q=q, rounds=rounds, eta=0,
                                 learner="linint", adversary="greedy", seed=0)
        total = run_game(config).counted_total
        return [[0, "linint", "greedy", total, "", "", CERTIFIED_BOUNDS["standard_unit"]()]]
    rows = []
    lb = CERTIFIED_BOUNDS["forced_lower"](eta)
    ub = CERTIFIED_BOUNDS["staged_upper"](eta)
    for learner in ("linint", "staged"):
        config = GameConfig.make(p=p, q=q, rounds=10 * eta + 10, eta=eta,
                                 learner=learner, adversary="noisy-lb", seed=0)
        tr = run_game(config)
        rows.append([eta, learner, "noisy-lb", tr.counted_total, lb,
                     tr.counted_total / lb, ""])
    worst = 0.0
    for seed in range(liar_seeds):
        config = GameConfig.make(p=p, q=q, rounds=rounds, eta=eta,
                                 learner="staged", adversary="random-liar", seed=seed)
        worst = max(worst, run_game(config).counted_total)
    rows.append([eta, "staged", "random-liar", worst, "", "", ub])
    return rows


def cmd_sweep_eta(args) -> int:
    spec = _load_config(args.config, {
        "etas": [1, 2, 3],
        "p": 2.0, "q": 2.0,
        "rounds": 500,
        "liar_seeds": 5,
    })
    if spec["p"] < 2.0 or spec["q"] < 2.0:
        raise ConfigError("eta sweeps are certified for p, q >= 2")
    cells = sorted(
        (int(eta), int(spec["rounds"]), int(spec["liar_seeds"]), float(spec["p"]), float(spec["q"]))
        for eta in spec["etas"]
    )
    nested = _run_cells(_eta_cell, cells, args.workers)
    rows = [row for group in nested for row in group]
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = ["eta", "learner", "adversary", "observed_total", "forced_lower_bound",
              "lb_ratio", "upper_bound"]
    _write_csv(
        out / "sweep_eta.csv",
        header,
        rows,
        comment="eta=0 standard game must stay <= 1; scripted liar must force >= 2*eta+1; "
                "staged learner must stay <= 12*eta+6",
    )
    return EXIT_VIOLATION if _bound_violations(header, rows) else EXIT_OK


def _run_cells(fn, cells, workers):
    if workers <= 1:
        return [fn(c) for c in cells]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, cells))


# ---------------------------------------------------------------------------
# verify-lemmas


def cmd_verify_lemmas(args) -> int:
    spec = _load_config(args.config, {
        "samples": {},
        "default_samples": 20000,
        "seed": 0,
    }) if args.config else {"samples": {}, "default_samples": 20000, "seed": 0}
    if args.samples is not None:
        spec["default_samples"] = args.samples
    seed = args.seed if args.seed is not None else spec["seed"]
    samples = spec["samples"]
    if not isinstance(samples, dict) or not set(samples) <= set(GAP_IDS):
        raise ConfigError(f"samples must map gap ids {GAP_IDS} to budgets, got {samples!r}")
    reports = []
    for gap_id in GAP_IDS:
        try:
            budget = int(samples.get(gap_id, spec["default_samples"]))
            if gap_id == "cumulative" and budget > 0:
                budget = max(10, budget // 20)
            reports.append(search_near_violation(gap_id, budget=budget, seed=seed))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "tool": "smoothgame",
        "version": __version__,
        "seed": seed,
        "reports": [r.to_dict() for r in reports],
    }
    (out / "gap_reports.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    for r in reports:
        print(f"{r.gap_id:>12s}: min gap {r.min_gap:+.3e} over {r.samples} samples "
              f"({'ok' if r.ok else 'VIOLATED'})")
    return EXIT_OK if all(r.ok for r in reports) else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# poly-build


def cmd_poly_build(args) -> int:
    spec = _load_config(args.config, {
        "points": _REQUIRED,
        "q": _REQUIRED,
        "mode": "approx",
        "epsilon": 0.1,
        "degree_cap": 2 ** 14,
    })
    try:
        s = SampleSet.from_pairs([(float(u), float(v)) for u, v in spec["points"]])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad points: {exc}") from exc
    try:
        q = float(spec["q"])
        _check_finite_q(q)
        eps = float(spec["epsilon"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad q or epsilon: {exc}") from exc
    if not eps > 0.0:
        raise ConfigError(f"epsilon must be positive, got {eps}")
    result = {
        "tool": "smoothgame", "version": __version__,
        "mode": spec["mode"], "q": q,
        "points": [[u, v] for u, v in s],
        "sample_action": q_action(s, q),
    }
    try:
        if spec["mode"] == "approx":
            poly, plan = approx_interpolant_poly(s, q, eps, degree_cap=int(spec["degree_cap"]))
            result["epsilon"] = eps
            result["plan"] = {
                "eps2": plan.eps2, "eps3": plan.eps3,
                "C": plan.C, "c1": plan.c1, "degree": plan.degree,
            }
        elif spec["mode"] == "exact":
            poly = exact_interpolant_poly(s, q, degree_cap=int(spec["degree_cap"]))
        else:
            raise ConfigError(f"unknown mode {spec['mode']!r}")
    except DegreeCapError as exc:
        raise ConfigError(f"construction failed: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    action = q_action_poly(poly, q)
    result["degree"] = poly.degree
    result["bernstein_coefficients"] = [float(c) for c in poly.coeffs]
    if poly.degree <= 60:
        result["power_coefficients"] = [float(c) for c in poly.to_power_coeffs()]
    else:
        result["power_coefficients"] = None
        result["power_note"] = "degree above 60: power-basis round trip is not reliable"
    result["residuals"] = [float(poly(u) - v) for u, v in s]
    result["action"] = action
    if spec["mode"] == "exact":
        result["action_certified_below_one"] = bool(action < 1.0)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "poly_build.json").write_text(json.dumps(result, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    src = pathlib.Path(args.config) if args.config else pathlib.Path(args.out)
    if not src.is_dir():
        print(f"report input {src} is not a directory", file=sys.stderr)
        return EXIT_CONFIG
    summaries = sorted(src.glob("**/*summary.json"))
    gap_files = sorted(src.glob("**/gap_reports.json"))
    sweep_files = sorted(src.glob("**/sweep_*.csv"))
    if not summaries and not gap_files and not sweep_files:
        print(f"no recognized outputs under {src}", file=sys.stderr)
        return EXIT_CONFIG
    violations = 0
    lines = [f"# smoothgame report", "", f"inputs: {len(summaries)} game summaries, "
             f"{len(gap_files)} gap reports, {len(sweep_files)} sweeps", ""]
    for path in summaries:
        data = json.loads(path.read_text())
        legal = data.get("legality")
        if legal is False:
            violations += 1
        lines.append(f"- game `{path.name}`: counted_total={data.get('counted_total')}, "
                     f"legality={legal}")
    for path in gap_files:
        data = json.loads(path.read_text())
        for rep in data.get("reports", []):
            if not rep.get("ok", True):
                violations += 1
            lines.append(f"- gap `{rep['gap_id']}`: min={rep['min_gap']:.3e}, "
                         f"violations={rep['violations']}")
    for path in sweep_files:
        rows = [r for r in csv.reader(
            line for line in path.read_text().splitlines() if not line.startswith("#"))]
        header, body = rows[0], rows[1:]
        bad = _bound_violations(header, body)
        violations += bad
        lines.append(f"- sweep `{path.name}`: {len(body)} rows, {bad} bound violations")
    lines += ["", f"total bound violations: {violations}"]
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.md").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_VIOLATION if violations else EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothgame",
        description="games, bound sweeps and polynomial builds for online "
                    "learning of action-bounded functions",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="JSON config path")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--workers", type=int, default=1)
        cmd.add_argument("--samples", type=int, default=None,
                         help="per-check sample budget (verify-lemmas)")
    return parser


_HANDLERS = {
    "simulate": cmd_simulate,
    "sweep-epsilon": cmd_sweep_epsilon,
    "sweep-eta": cmd_sweep_eta,
    "verify-lemmas": cmd_verify_lemmas,
    "poly-build": cmd_poly_build,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    needs_config = args.command in ("simulate", "poly-build")
    if needs_config and not args.config:
        print("this command requires --config", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IllegalAdversaryError as exc:
        print(f"adversary illegality: {exc}", file=sys.stderr)
        return EXIT_ILLEGAL
    except RuntimeError as exc:
        print(f"internal fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
