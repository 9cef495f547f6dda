"""Batch command-line front end.

Subcommands:
  solve          run one problem end to end and write record + solution dump
  classify       print the regime and interior-factor sign for (p, q, n, s)
  phase-diagram  run a sweep of (p, q) points, collecting one record each
  audit          maximum-principle audit + operator structure checks

Configuration is a JSON file (--config) whose keys match the long option
names; explicit command-line flags override file values.  Every record is
self-describing: re-running `solve` from a record's input echo reproduces
the numerics bitwise.

Exit codes: 0 success, 2 solver nonconvergence or failed audit, 3 resonant
exponents (p*q = 1), 4 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np

from . import __version__
from .analysis import (
    boundary_exponent_fit,
    boundary_quotient,
    classify,
    maximum_principle_audit,
    operator_invariants,
    rellich_residual,
    uniqueness_gap,
)
from .domains import Domain, build_grid
from .energy import ExponentPair
from .errors import ConfigurationError, NonconvergenceError, ResonantProblemError
from .operator import assemble
from .solvers import SolverConfig, solve_system

EXIT_OK = 0
EXIT_NONCONVERGENCE = 2
EXIT_RESONANT = 3
EXIT_CONFIG = 4

RECORD_FIELDS = [
    "input", "regime", "method", "converged", "verdict", "residual_u", "residual_v",
    "energy_value", "energy_kinetic", "energy_potential", "energy_norm",
    "min_u", "min_v", "sup_u", "sup_v",
    "rellich_lhs", "rellich_rhs", "rellich_rhs_factor", "rellich_residual",
    "rellich_cross_gap", "rellich_star_shaped", "rellich_corners_dropped",
    "rellich_fit_failures", "alpha_u", "alpha_v", "quotient_u", "quotient_v",
    "uniqueness_gap_u", "uniqueness_gap_v", "uniqueness_s_hat",
    "n_nodes", "grid_h", "version", "wall_time_s",
]


def _parse_number(text):
    """Exact Fraction for rational-looking input, float otherwise."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return float(text)


def _domain_from_config(cfg: dict) -> Domain:
    dom = cfg.get("domain")
    if not isinstance(dom, dict) or "kind" not in dom:
        raise ConfigurationError("config needs a 'domain' object with a 'kind'")
    kind = dom["kind"]
    if kind == "interval":
        eps = dom.get("endpoints")
        if eps is None:
            raise ConfigurationError("interval domain needs 'endpoints': [a, b]")
        return Domain.interval(*eps)
    if kind == "rectangle":
        sides = dom.get("sides")
        if sides is None:
            raise ConfigurationError("rectangle domain needs 'sides': [lx, ly]")
        return Domain.rectangle(*sides, center=tuple(dom.get("center", (0.0, 0.0))))
    if kind == "disk":
        radius = dom.get("radius")
        if radius is None:
            raise ConfigurationError("disk domain needs 'radius'")
        return Domain.disk(radius, center=tuple(dom.get("center", (0.0, 0.0))))
    raise ConfigurationError(f"unknown domain kind {kind!r}")


def _load_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigurationError("config file must contain a JSON object")
    overrides = {
        "resolution": args.resolution,
        "s": args.s,
        "p": getattr(args, "p", None),
        "q": getattr(args, "q", None),
        "solver": getattr(args, "solver", None),
        "seed": args.seed,
        "init": getattr(args, "init", None),
        "second_init": getattr(args, "second_init", None),
        "outdir": args.outdir,
        "singular_correction": True if getattr(args, "singular_correction", False) else None,
        "max_iter": getattr(args, "max_iter", None),
        "mp_sweeps": getattr(args, "mp_sweeps", None),
        "residual_tol": getattr(args, "residual_tol", None),
    }
    if getattr(args, "domain_kind", None):
        dom = {"kind": args.domain_kind}
        if args.endpoints is not None:
            dom["endpoints"] = args.endpoints
        if args.sides is not None:
            dom["sides"] = args.sides
        if args.radius is not None:
            dom["radius"] = args.radius
        if args.center is not None:
            dom["center"] = args.center
        overrides["domain"] = dom
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    return cfg


def _validated(cfg: dict) -> dict:
    """Fill defaults, check types, and normalize the input echo."""
    if "domain" not in cfg:
        n = int(cfg.get("n", 1))
        if n == 1:
            cfg["domain"] = {"kind": "interval", "endpoints": [-1.0, 1.0]}
        elif n == 2:
            cfg["domain"] = {"kind": "disk", "radius": 1.0, "center": [0.0, 0.0]}
        else:
            raise ConfigurationError(f"dimension n={n} not supported (only n = 1 or 2)")
    domain = _domain_from_config(cfg)
    if "n" in cfg and int(cfg["n"]) != domain.dim:
        raise ConfigurationError(
            f"requested dimension n={cfg['n']} does not match the given domain "
            f"(dimension {domain.dim}); only n = 1 or 2 are supported"
        )
    out = {
        "domain": dict(cfg["domain"]),
        "resolution": int(cfg.get("resolution", 128)),
        "s": float(cfg.get("s", 0.5)),
        "p": float(cfg["p"]) if "p" in cfg else None,
        "q": float(cfg["q"]) if "q" in cfg else None,
        "solver": cfg.get("solver", "auto"),
        "seed": int(cfg.get("seed", 0)),
        "init": cfg.get("init", "bump"),
        "second_init": cfg.get("second_init"),
        "singular_correction": bool(cfg.get("singular_correction", False)),
        "max_iter": int(cfg.get("max_iter", 2000)),
        "mp_sweeps": int(cfg.get("mp_sweeps", 300)),
        "residual_tol": float(cfg.get("residual_tol", 1e-8)),
        "outdir": cfg.get("outdir") or os.environ.get("FRACLANE_OUTDIR", "fraclane_out"),
    }
    if out["p"] is None or out["q"] is None:
        raise ConfigurationError("config needs exponents 'p' and 'q'")
    if out["p"] <= 0 or out["q"] <= 0:
        raise ConfigurationError("exponents must be positive")
    if not 0.0 < out["s"] < 1.0:
        raise ConfigurationError(f"fractional order must lie in (0,1), got {out['s']}")
    if out["solver"] not in ("auto", "sublinear", "mountain_pass"):
        raise ConfigurationError(f"unknown solver {out['solver']!r}")
    if out["init"] not in ("zero", "bump", "random"):
        raise ConfigurationError(f"unknown init {out['init']!r} (CLI supports zero|bump|random)")
    if out["second_init"] is not None and out["second_init"] not in ("zero", "bump", "random"):
        raise ConfigurationError(f"unknown second_init {out['second_init']!r}")
    return out


def _solver_config(cfg: dict, init: str) -> SolverConfig:
    return SolverConfig(
        max_iter=cfg["max_iter"],
        mp_sweeps=cfg["mp_sweeps"],
        residual_tol=cfg["residual_tol"],
        seed=cfg["seed"],
        init=init,
    )


def _empty_record(cfg: dict) -> dict:
    record = {name: None for name in RECORD_FIELDS}
    record["input"] = cfg
    record["version"] = __version__
    record["converged"] = False
    return record


def _run_solve(cfg: dict) -> tuple:
    """Full pipeline for one problem.  Returns (record, pair_or_None, grid);
    the pair is None when any requested solve failed to converge."""
    t0 = time.perf_counter()
    domain = _domain_from_config(cfg)
    grid = build_grid(domain, cfg["resolution"])
    exps = ExponentPair(cfg["p"], cfg["q"])
    regime = classify(exps, grid.dim, cfg["s"])
    record = _empty_record(cfg)
    record["regime"] = regime
    record["n_nodes"] = grid.n_nodes
    record["grid_h"] = list(grid.h)
    if regime == "resonant":
        raise ResonantProblemError(
            "p*q = 1 is resonant (eigenvalue problem); rejected before solving"
        )
    op = assemble(grid, cfg["s"], singular_correction=cfg["singular_correction"])
    try:
        pair = solve_system(op, exps, _solver_config(cfg, cfg["init"]), cfg["solver"])
    except NonconvergenceError as exc:
        record["wall_time_s"] = time.perf_counter() - t0
        record["verdict"] = _failure_verdict(regime, exps, grid, cfg["s"], str(exc))
        return record, None, grid
    record["method"] = pair.method
    record["converged"] = True
    record["residual_u"], record["residual_v"] = pair.residual_u, pair.residual_v
    record["energy_value"] = pair.energy.value
    record["energy_kinetic"] = pair.energy.kinetic
    record["energy_potential"] = pair.energy.potential
    record["energy_norm"] = pair.energy.e_norm
    record["min_u"], record["min_v"] = pair.min_u, pair.min_v
    record["sup_u"] = float(np.max(np.abs(pair.u)))
    record["sup_v"] = float(np.max(np.abs(pair.v)))
    rel = rellich_residual(pair, exps, grid, cfg["s"])
    record["rellich_lhs"] = rel.lhs
    record["rellich_rhs"] = rel.rhs
    record["rellich_rhs_factor"] = rel.rhs_factor
    record["rellich_residual"] = rel.residual
    record["rellich_cross_gap"] = rel.cross_gap
    record["rellich_star_shaped"] = rel.star_shaped
    record["rellich_corners_dropped"] = rel.corners_dropped
    record["rellich_fit_failures"] = rel.boundary_fit_failures
    record["alpha_u"] = boundary_exponent_fit(np.maximum(pair.u, 0.0), grid).aggregate
    record["alpha_v"] = boundary_exponent_fit(np.maximum(pair.v, 0.0), grid).aggregate
    record["quotient_u"] = boundary_quotient(np.maximum(pair.u, 0.0), grid, cfg["s"]).aggregate
    record["quotient_v"] = boundary_quotient(np.maximum(pair.v, 0.0), grid, cfg["s"]).aggregate
    if cfg["second_init"]:
        try:
            pair2 = solve_system(op, exps, _solver_config(cfg, cfg["second_init"]), cfg["solver"])
        except NonconvergenceError as exc:
            # the first pair's record stands; only the uniqueness gap is missing
            record["wall_time_s"] = time.perf_counter() - t0
            record["verdict"] = f"nonconvergence: second start {cfg['second_init']!r} failed: {exc}"
            return record, None, grid
        gap = uniqueness_gap(pair, pair2)
        record["uniqueness_gap_u"] = gap.gap_u
        record["uniqueness_gap_v"] = gap.gap_v
        record["uniqueness_s_hat"] = gap.s_hat
    if regime in ("critical", "supercritical") and rel.star_shaped and rel.rhs_factor <= 0:
        record["verdict"] = (
            "discretization artifact likely: converged to a positive pair, but on a "
            "star-shaped domain the integral identity forbids one in this regime "
            f"(boundary term {rel.lhs:.6g} > 0 against interior factor "
            f"{rel.rhs_factor:.6g} <= 0, identity residual {rel.residual:.3g}); "
            "expect the pair to degenerate under refinement"
        )
    else:
        record["verdict"] = "existence: converged to a positive pair with accepted residuals"
    record["wall_time_s"] = time.perf_counter() - t0
    return record, pair, grid


def _failure_verdict(regime: str, exps: ExponentPair, grid, s, detail: str) -> str:
    if regime in ("critical", "supercritical"):
        factor = float(exps.rhs_factor(grid.dim, s))
        star = grid.domain.is_star_shaped_wrt_origin()
        if star and factor <= 0:
            return (
                "nonexistence-consistent: solver did not converge, the domain is "
                f"star-shaped, and the interior factor {factor:.6g} is <= 0 while the "
                "boundary term of the integral identity is positive for any positive "
                "solution; consistent with nonexistence (not a proof). "
                f"Detail: {detail}"
            )
    return f"nonconvergence: {detail}"


def _write_record(record: dict, outdir: str, stem: str = "record") -> str:
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"{stem}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_solution(pair, grid, outdir: str, stem: str = "solution") -> str:
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"{stem}.csv")
    coords = grid.x
    names = ["x", "y"][: coords.shape[1]]
    header = ",".join(names + ["u", "v"])
    data = np.column_stack([coords, pair.u, pair.v])
    np.savetxt(path, data, delimiter=",", header=header, comments="")
    return path


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    cfg = _validated(_load_config(args))
    record, pair, grid = _run_solve(cfg)
    rec_path = _write_record(record, cfg["outdir"])
    if pair is not None:
        sol_path = _write_solution(pair, grid, cfg["outdir"])
        print(f"regime={record['regime']} method={record['method']} "
              f"residuals=({record['residual_u']:.2e},{record['residual_v']:.2e}) "
              f"energy={record['energy_value']:+.6f}")
        print(f"record: {rec_path}\nsolution: {sol_path}")
        return EXIT_OK
    print(f"regime={record['regime']} converged={record['converged']}")
    print(record["verdict"])
    print(f"record: {rec_path}")
    return EXIT_NONCONVERGENCE


def cmd_classify(args) -> int:
    p = _parse_number(args.p)
    q = _parse_number(args.q)
    s = _parse_number(args.s)
    n = int(args.n)
    if not 1 <= n:
        raise ConfigurationError("dimension must be a positive integer")
    exps = ExponentPair(p, q)
    regime = classify(exps, n, s)
    factor = exps.rhs_factor(n, s)
    print(f"regime: {regime}")
    print(f"rhs_factor: {float(factor):.12g}")
    return EXIT_OK


def cmd_phase_diagram(args) -> int:
    cfg_base = _load_config(args)
    if args.pairs is not None:
        items = [item for item in args.pairs.split(",") if item.strip()]
        try:
            points = [tuple(float(v) for v in item.split(":")) for item in items]
        except ValueError as exc:
            raise ConfigurationError(f"cannot parse --pairs: {exc}") from exc
        if not all(len(pt) == 2 for pt in points):
            raise ConfigurationError("--pairs items must look like p:q")
    else:
        if not args.p_list or not args.q_list:
            raise ConfigurationError("phase-diagram needs --pairs or both --p-list and --q-list")
        ps = [float(v) for v in args.p_list.split(",")]
        qs = [float(v) for v in args.q_list.split(",")]
        points = [(p, q) for p in ps for q in qs]
    outdir = cfg_base.get("outdir") or os.environ.get("FRACLANE_OUTDIR", "fraclane_out")

    def run_point(index_point):
        index, (p, q) = index_point
        cfg = dict(cfg_base)
        cfg["p"], cfg["q"] = p, q
        cfg["outdir"] = outdir
        try:
            cfg = _validated(cfg)
            record, _, _ = _run_solve(cfg)
        except ResonantProblemError as exc:
            record = _empty_record(cfg)
            record["regime"] = "resonant"
            record["verdict"] = f"resonant-skipped: {exc}"
        except ConfigurationError as exc:
            record = _empty_record(cfg)
            record["verdict"] = f"configuration error: {exc}"
        except NonconvergenceError as exc:
            record = _empty_record(cfg)
            record["verdict"] = f"nonconvergence: {exc}"
        return index, record

    jobs = max(1, args.jobs)
    indexed = list(enumerate(points))
    if jobs == 1:
        results = [run_point(item) for item in indexed]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_point, indexed))
    results.sort(key=lambda item: item[0])
    records = [record for _, record in results]
    os.makedirs(outdir, exist_ok=True)
    json_path = os.path.join(outdir, "phase_diagram.json")
    with open(json_path, "w") as fh:
        json.dump(records, fh, indent=2, sort_keys=True)
        fh.write("\n")
    csv_path = os.path.join(outdir, "phase_diagram.csv")
    with open(csv_path, "w") as fh:
        fh.write("p,q,regime,converged,method,energy_value,residual_u,residual_v,"
                 "rellich_rhs_factor,verdict\n")
        for record in records:
            inp = record["input"]
            fh.write(
                f"{inp.get('p')},{inp.get('q')},{record['regime']},{record['converged']},"
                f"{record['method']},{record['energy_value']},{record['residual_u']},"
                f"{record['residual_v']},{record['rellich_rhs_factor']},"
                f"\"{(record['verdict'] or '').splitlines()[0] if record['verdict'] else ''}\"\n"
            )
    print(f"{len(records)} points -> {csv_path}")
    for record in records:
        inp = record["input"]
        status = "ok" if record["converged"] else (record["regime"] or "failed")
        print(f"  p={inp.get('p')} q={inp.get('q')}: {status}")
    return EXIT_OK


def cmd_audit(args) -> int:
    cfg = _load_config(args)
    cfg.setdefault("p", 1.0)  # exponents unused by the audit, satisfy validation
    cfg.setdefault("q", 2.0)
    cfg.setdefault("domain", {"kind": "interval", "endpoints": [-1.0, 1.0]})
    cfg = _validated(cfg)
    domain = _domain_from_config(cfg)
    grid = build_grid(domain, cfg["resolution"])
    op = assemble(grid, cfg["s"], singular_correction=cfg["singular_correction"])
    struct = operator_invariants(op)
    audit = maximum_principle_audit(op, trials=args.trials, seed=cfg["seed"])
    for name, value in struct.items():
        print(f"{name}: {'ok' if value else 'FAILED'}")
    print(f"positivity trials: {audit.passes}/{audit.trials} passed")
    if audit.inverse_nonnegative is not None:
        print(f"inverse entrywise nonnegative: {'ok' if audit.inverse_nonnegative else 'FAILED'}")
    good = all(struct.values()) and audit.all_passed and audit.inverse_nonnegative in (None, True)
    if not good and audit.witnesses:
        for witness in audit.witnesses[:5]:
            print(f"  witness: trial {witness['trial']} min={witness['min_value']:.3e}")
    return EXIT_OK if good else EXIT_NONCONVERGENCE


def _add_domain_flags(sub):
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--domain-kind", choices=["interval", "rectangle", "disk"])
    sub.add_argument("--endpoints", nargs=2, type=float, metavar=("A", "B"))
    sub.add_argument("--sides", nargs=2, type=float, metavar=("LX", "LY"))
    sub.add_argument("--radius", type=float)
    sub.add_argument("--center", nargs="*", type=float)
    sub.add_argument("--resolution", type=int)
    sub.add_argument("--s", type=float, help="fractional order in (0,1)")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--outdir", help="output directory (default $FRACLANE_OUTDIR or ./fraclane_out)")
    sub.add_argument("--singular-correction", action="store_true",
                     help="enable the central-cell curvature correction")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraclane",
        description="Solve and verify the coupled fractional power system on bounded domains.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sol = subs.add_parser("solve", help="solve one problem and write record + solution")
    _add_domain_flags(sol)
    sol.add_argument("--p", type=float)
    sol.add_argument("--q", type=float)
    sol.add_argument("--solver", choices=["auto", "sublinear", "mountain_pass"])
    sol.add_argument("--init", choices=["zero", "bump", "random"])
    sol.add_argument("--second-init", dest="second_init", choices=["zero", "bump", "random"],
                     help="run a second solve from this start and report the gap")
    sol.add_argument("--max-iter", dest="max_iter", type=int)
    sol.add_argument("--mp-sweeps", dest="mp_sweeps", type=int)
    sol.add_argument("--residual-tol", dest="residual_tol", type=float)
    sol.set_defaults(func=cmd_solve)

    cls = subs.add_parser("classify", help="print regime and rhs factor for (p, q, n, s)")
    cls.add_argument("p", help="first exponent (accepts fractions like 1/3)")
    cls.add_argument("q", help="second exponent")
    cls.add_argument("n", help="space dimension")
    cls.add_argument("s", help="fractional order (accepts fractions)")
    cls.set_defaults(func=cmd_classify)

    pha = subs.add_parser("phase-diagram", help="sweep (p, q) points and tabulate outcomes")
    _add_domain_flags(pha)
    pha.add_argument("--pairs", help="comma-separated p:q list, e.g. 0.5:0.5,3:3")
    pha.add_argument("--p-list", dest="p_list", help="comma-separated p values (cartesian with --q-list)")
    pha.add_argument("--q-list", dest="q_list", help="comma-separated q values")
    pha.add_argument("--jobs", type=int, default=1, help="concurrent sweep points")
    pha.set_defaults(func=cmd_phase_diagram)

    aud = subs.add_parser("audit", help="maximum principle audit + operator structure checks")
    _add_domain_flags(aud)
    aud.add_argument("--trials", type=int, default=100)
    aud.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResonantProblemError as exc:
        print(f"resonant problem rejected: {exc}", file=sys.stderr)
        return EXIT_RESONANT
    except NonconvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
