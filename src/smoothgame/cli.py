"""Batch driver: single games, bound sweeps, inequality searches, poly builds.

Every command reads a JSON config, writes CSV/JSON artifacts into an output
directory, and exits 0 on success, 1 on a config or usage error, 2 when an
adversary broke the rules, 3 when a certified bound was violated, and 4 on
an internal fault (a run aborted with a ``RuntimeError``, such as a player
protocol violation or a diverged endpoint search; in ``simulate``, whose
config and players are checked before the run, also a ``ValueError``).
Outputs are deterministic for a fixed config and seed: sweep cells may run
in parallel but results are merged in sorted cell order, and files carry no
timestamps.
"""

from __future__ import annotations

import argparse
import collections
import concurrent.futures
import csv
import json
import pathlib
import sys

from . import __version__
from .adversaries import QUERY_POLICIES
from .engine import (
    GameConfig,
    IllegalAdversaryError,
    build_players,
    run_game,
    write_outputs,
)
from .inequalities import GAP_IDS, search_near_violation
from .interpolation import SampleSet, q_action
from .bernstein import DEGREE_CAP, FINITE_Q, DegreeCapError, q_action_poly
from .polyapprox import approx_interpolant_poly, exact_interpolant_poly
from .schema import REQUIRED, Choice, ConfigError, Count, ListOf, Options, Real, check, table

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ILLEGAL = 2
EXIT_VIOLATION = 3
EXIT_INTERNAL = 4

# Each certified bound's one home: its formula, the formula as the sweep CSVs
# print it, its region (a schema kind per parameter) and the PAPER.md claim it
# serves, with its status. The sweeps, ``report`` and the acceptance suite read it.
Bound = collections.namedtuple("Bound", "formula text region claim")
_P_Q_AT_LEAST_2 = {"p": Real(2), "q": Real(2, finite=False)}
CERTIFIED_BOUNDS = {
    "epsilon_ceiling": Bound(lambda eps: 6.0 / eps, "6/epsilon", {"epsilon": Real(0, 1, above=True)},
                             "(a), partial: linint vs greedy at p = q = 1 + epsilon; the abstract "
                             "gives the order only, and the constant 6 is this repository's"),
    "standard_unit": Bound(lambda: 1.0, "1", _P_Q_AT_LEAST_2, "(b), partial: linint vs "
                           "greedy, the finite side at p, q >= 2 (Kimber and Long 1995)"),
    "forced_lower": Bound(lambda eta: 2 * eta + 1, "2*eta+1", {"p": Real(2)}, "(e), reproduced: "
                          "the lower side, which the noisy-lb script forces on any learner"),
    "staged_upper": Bound(lambda eta: 12 * eta + 6, "12*eta+6", _P_Q_AT_LEAST_2, "(d) and (e), "
                          "open: staged learner vs any liar; false for the shipped learner, which "
                          "a liar refilling its bands every stage drives to 51.0 > 42 at eta = 3"),
}
BOUND_SLACK = 1e-9  # the sweeps' and report's rounding slack: on a total, or on a ratio to 1

_GAME = table(GameConfig)
# each command's config keys: key -> (kind, default)
CONFIGS = {
    # a null seed is the default seed 0
    "simulate": {**_GAME, "seed": (_GAME["seed"][0], None)},
    "sweep-epsilon": {
        "epsilons": (ListOf(CERTIFIED_BOUNDS["epsilon_ceiling"].region["epsilon"]), [0.1, 0.25, 0.5]),
        "rounds": (Count(1), 1000),
        "seeds": (ListOf(Count(0)), [0, 1, 2]),
        "policies": (ListOf(Choice(QUERY_POLICIES)), list(QUERY_POLICIES)),
    },
    "sweep-eta": {
        "etas": (ListOf(Count(0)), [1, 2, 3]),
        # p and q where the narrowest of the eta sweep's bounds is certified
        **{k: (kind, 2.0) for k, kind in CERTIFIED_BOUNDS["staged_upper"].region.items()},
        "rounds": (Count(1), 500),
        "liar_seeds": (Count(1), 5),
    },
    "verify-lemmas": {
        # a gap's budget, else default_samples
        "samples": (Options(dict.fromkeys(GAP_IDS, (Count(1), None))), {}),
        "default_samples": (Count(1), 20000),
        "seed": (Count(0), 0),
    },
    "poly-build": {
        # each point is [u, v]; SampleSet checks u in [0, 1] and v finite
        "points": (ListOf(ListOf(Real(None))), REQUIRED),
        "q": (FINITE_Q, REQUIRED),
        "mode": (Choice(("approx", "exact")), "approx"),
        "epsilon": (Real(0, above=True), 0.1),
        # above DEGREE_CAP the action grid's basis outgrows its cache's entry bound
        "degree_cap": (Count(1, DEGREE_CAP), DEGREE_CAP),
    },
}


def _load_config(path: str | None, declared: dict, **flags) -> dict:
    """The JSON config at ``path`` (none: ``{}``), each flag given replacing its key, checked."""
    raw = {}
    if path:
        try:
            raw = json.loads(pathlib.Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if isinstance(raw, dict):
        raw.update((k, v) for k, v in flags.items() if v is not None)
    return check(declared, raw, json=True)


def _bound_violations(header: list[str], rows: list[list]) -> int:
    """Broken certified bounds in a sweep table; empty cells carry no bound.

    Cells may be numbers or the text a CSV reader returns. A NaN total or
    ratio breaks every bound it is checked against.
    """
    col = {name: i for i, name in enumerate(header)}
    bad = 0
    for r in rows:
        ratio = r[col["ratio"]] if "ratio" in col else ""
        if ratio != "" and not float(ratio) <= 1.0 + BOUND_SLACK:
            bad += 1
        if "forced_lower_bound" in col:
            observed = float(r[col["observed_total"]])
            lower, upper = r[col["forced_lower_bound"]], r[col["upper_bound"]]
            if lower != "" and not observed >= float(lower) - BOUND_SLACK:
                bad += 1
            if upper != "" and not observed <= float(upper) + BOUND_SLACK:
                bad += 1
    return bad


def _write_sweep(out: str, name: str, header: list[str], rows: list[list], comment: str) -> int:
    """Write ``out/name``: the comment line, then the CSV; exit 3 if a row breaks its bound."""
    out = pathlib.Path(out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / name, "w", newline="") as f:
        f.write(f"# {comment}\n")
        csv.writer(f, lineterminator="\n").writerows([header, *rows])
    return EXIT_VIOLATION if _bound_violations(header, rows) else EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    spec = _load_config(args.config, CONFIGS["simulate"], seed=args.seed)
    try:
        config = GameConfig.make(**{**spec, "seed": spec["seed"] or 0})
        build_players(config)
    except ValueError as exc:
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
    bound = CERTIFIED_BOUNDS["epsilon_ceiling"].formula(eps)
    return [eps, policy, seed, tr.counted_total, bound, tr.counted_total / bound]


def cmd_sweep_epsilon(args) -> int:
    spec = _load_config(args.config, CONFIGS["sweep-epsilon"])
    cells = sorted(
        (float(e), pol, sd, spec["rounds"])
        for e in spec["epsilons"] for pol in spec["policies"] for sd in spec["seeds"]
    )
    rows = _run_cells(_epsilon_cell, cells, args.workers)
    return _write_sweep(
        args.out, "sweep_epsilon.csv",
        ["epsilon", "policy", "seed", "observed_total", "bound", "ratio"], rows,
        "columns: epsilon vs counted error total and the "
        f"{CERTIFIED_BOUNDS['epsilon_ceiling'].text} ceiling",
    )


def _eta_cell(cell):
    eta, rounds, liar_seeds, p, q = cell
    if eta == 0:
        config = GameConfig.make(p=p, q=q, rounds=rounds, eta=0,
                                 learner="linint", adversary="greedy", seed=0)
        total = run_game(config).counted_total
        return [[0, "linint", "greedy", total, "", "", CERTIFIED_BOUNDS["standard_unit"].formula()]]
    rows = []
    lb = CERTIFIED_BOUNDS["forced_lower"].formula(eta)
    ub = CERTIFIED_BOUNDS["staged_upper"].formula(eta)
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
    spec = _load_config(args.config, CONFIGS["sweep-eta"])
    cells = sorted(
        (eta, spec["rounds"], spec["liar_seeds"], float(spec["p"]), float(spec["q"]))
        for eta in spec["etas"]
    )
    nested = _run_cells(_eta_cell, cells, args.workers)
    rows = [row for group in nested for row in group]
    return _write_sweep(
        args.out, "sweep_eta.csv",
        ["eta", "learner", "adversary", "observed_total", "forced_lower_bound", "lb_ratio",
         "upper_bound"], rows,
        "eta=0 standard game must stay <= {}; scripted liar must force >= {}; "
        "staged learner must stay <= {}".format(*(CERTIFIED_BOUNDS[k].text for k in (
            "standard_unit", "forced_lower", "staged_upper"))),
    )


def _run_cells(fn, cells, workers):
    if Count(1).check("workers", workers) == 1:
        return [fn(c) for c in cells]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, cells))


# ---------------------------------------------------------------------------
# verify-lemmas


def cmd_verify_lemmas(args) -> int:
    spec = _load_config(args.config, CONFIGS["verify-lemmas"],
                        default_samples=args.samples, seed=args.seed)
    seed = spec["seed"]
    budgets = {gap_id: spec["samples"].get(gap_id) or spec["default_samples"]
               for gap_id in GAP_IDS}
    budgets["cumulative"] = max(10, budgets["cumulative"] // 20)
    reports = [search_near_violation(gap_id, budget=budgets[gap_id], seed=seed)
               for gap_id in GAP_IDS]
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
    spec = _load_config(args.config, CONFIGS["poly-build"])
    try:
        s = SampleSet.from_pairs([(float(u), float(v)) for u, v in spec["points"]])
    except ValueError as exc:
        raise ConfigError(f"bad points: {exc}") from exc
    q, eps, degree_cap = float(spec["q"]), float(spec["epsilon"]), spec["degree_cap"]
    result = {
        "tool": "smoothgame", "version": __version__,
        "mode": spec["mode"], "q": q,
        "points": [[u, v] for u, v in s],
        "sample_action": q_action(s, q),
    }
    try:
        if spec["mode"] == "approx":
            poly, plan = approx_interpolant_poly(s, q, eps, degree_cap=degree_cap)
            result["epsilon"] = eps
            result["plan"] = {"eps3": plan.eps3, "c1": plan.c1, "degree": plan.degree}
        else:
            poly = exact_interpolant_poly(s, q, degree_cap=degree_cap)
    except DegreeCapError as exc:
        raise ConfigError(f"construction failed within degree_cap {degree_cap}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"no {spec['mode']} polynomial for these points: {exc}") from exc
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
        raise ConfigError(f"report input {src} is not a directory")
    summaries = sorted(src.glob("**/*summary.json"))
    gap_files = sorted(src.glob("**/gap_reports.json"))
    sweep_files = sorted(src.glob("**/sweep_*.csv"))
    if not summaries and not gap_files and not sweep_files:
        raise ConfigError(f"no recognized outputs under {src}")
    violations = 0
    lines = [f"# smoothgame report", "", f"inputs: {len(summaries)} game summaries, "
             f"{len(gap_files)} gap reports, {len(sweep_files)} sweeps", ""]
    # a file that does not parse, or holds a value of the wrong kind, is a
    # config error that names it
    try:
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
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        raise ConfigError(f"malformed report input {path}: {type(exc).__name__}: {exc}") from exc
    lines += ["", f"total bound violations: {violations}"]
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.md").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_VIOLATION if violations else EXIT_OK


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is a config error (exit 1), not argparse's exit 2
        raise ConfigError(f"{self.prog}: {message}")


# command -> (handler, whether it needs --config, the integer flags it reads)
COMMANDS = {
    "simulate": (cmd_simulate, True, ("--seed",)),
    "sweep-epsilon": (cmd_sweep_epsilon, False, ("--workers",)),
    "sweep-eta": (cmd_sweep_eta, False, ("--workers",)),
    "verify-lemmas": (cmd_verify_lemmas, False, ("--seed", "--samples")),
    "poly-build": (cmd_poly_build, True, ()),
    "report": (cmd_report, False, ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="smoothgame",
        description="games, bound sweeps and polynomial builds for online "
                    "learning of action-bounded functions",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, needs_config, flags) in COMMANDS.items():
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=needs_config, help="JSON config path")
        cmd.add_argument("--out", required=True, help="output directory")
        for flag in flags:  # --seed and --samples replace config keys
            cmd.add_argument(flag, type=int, default=1 if flag == "--workers" else None)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command][0](args)
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
