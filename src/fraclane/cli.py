"""Batch command-line front end.

Subcommands:
  solve          run one problem end to end and write record + solution dump
  classify       print the regime and interior-factor sign for (p, q, n, s)
  phase-diagram  run a sweep of (p, q) points, collecting one record each
  audit          maximum-principle audit + operator structure checks

Configuration is a JSON file (--config) whose keys match the long option
names; an explicit command-line flag overrides its key of the file, or of
the file's domain, and a key that no option names is a configuration
error.  Every record is self-describing: re-running `solve` from a record's
input echo reproduces the numerics bitwise at the same BLAS thread count.

Exit codes: 0 success, 2 solver nonconvergence or failed audit, 3 resonant
exponents (p*q = 1), 4 configuration error (a usage error or a malformed value
included).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .analysis import maximum_principle_audit, operator_invariants, rellich_residual, uniqueness_gap
from .analysis import boundary_exponent_fit, boundary_quotient  # noqa: F401  (perfbench traces these)
from .domains import Domain, build_grid
from .energy import ExponentPair
from .errors import ConfigurationError, NonconvergenceError, ResonantProblemError
from .operator import _rational, assemble
from .solvers import INITS, SolverConfig, nonresonant_regime, solve_system

EXIT_OK = 0
EXIT_NONCONVERGENCE = 2
EXIT_RESONANT = 3
EXIT_CONFIG = 4

# config keys, then domain keys, that a command-line flag of the same name (dest) overrides
_FLAG_KEYS = ("resolution", "s", "p", "q", "seed", "init", "second_init", "outdir",
              "singular_correction", "max_iter", "mp_sweeps", "residual_tol")
_DOMAIN_FLAG_KEYS = ("kind", "endpoints", "sides", "radius", "center")


def _cast(kind, value, name: str):
    """`kind(value)` for `int` or `float`, with a malformed value, or one beyond
    the float range, reported as a configuration error; a JSON boolean is not
    a number, and `int` also rejects a float with a fractional part."""
    try:
        if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                       and not value.is_integer()):
            raise ValueError
        result = kind(value)
        float(result)
        return result
    except (TypeError, ValueError, OverflowError):
        expected = "an integer" if kind is int else "a number"
        raise ConfigurationError(f"{name} must be {expected}, got {value!r}") from None


def _numbers(text: str, name: str, sep: str = ",") -> list:
    """The exact rationals of a `sep`-separated flag value; an empty item is malformed."""
    return [_rational(item, name) for item in text.split(sep)]


def _default_domain(cfg: dict) -> dict:
    """The domain of a config that names none: the one of its dimension `n`."""
    n = _cast(int, cfg.get("n", 1), "n")
    if n == 1:
        return {"kind": "interval", "endpoints": [-1.0, 1.0]}
    if n == 2:
        return {"kind": "disk", "radius": 1.0, "center": [0.0, 0.0]}
    raise ConfigurationError(f"dimension n={n} not supported (only n = 1 or 2)")


def _domain_from_config(cfg: dict) -> Domain:
    dom = cfg.get("domain")
    try:  # a domain that is not a JSON object fails here too, as a TypeError
        return Domain(**dom)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid domain {dom!r}: {exc}") from exc


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
    flags = vars(args)
    cfg.update({key: flags[key] for key in _FLAG_KEYS if flags.get(key) is not None})
    overrides = {key: flags[key] for key in _DOMAIN_FLAG_KEYS if flags.get(key) is not None}
    if overrides:
        domain = cfg["domain"] if "domain" in cfg else _default_domain(cfg)
        if isinstance(domain, dict):  # any other domain is left for _validated to refuse
            kind = overrides.get("kind", domain.get("kind"))  # another kind starts a new object
            cfg["domain"] = {**(domain if domain.get("kind", kind) == kind else {}), **overrides}
    return cfg


def _validated(cfg: dict) -> dict:
    """Fill defaults (the solver's from `SolverConfig`), check types and
    ranges (the solver settings' by building a `SolverConfig`), and
    normalize the input echo."""
    defaults = SolverConfig()
    if "domain" not in cfg:
        cfg["domain"] = _default_domain(cfg)
    domain = _domain_from_config(cfg)
    if "n" in cfg and _cast(int, cfg["n"], "n") != domain.dim:
        raise ConfigurationError(f"requested dimension n={cfg['n']} does not match the given "
                                 f"domain (dimension {domain.dim}); only n = 1 or 2 are supported")
    out = {
        "domain": dict(cfg["domain"]),
        "resolution": _cast(int, cfg.get("resolution", 128), "resolution"),
        "s": _rational(cfg.get("s", 0.5), "s"),
        "p": _rational(cfg["p"], "p") if "p" in cfg else None,
        "q": _rational(cfg["q"], "q") if "q" in cfg else None,
        "seed": _cast(int, cfg.get("seed", defaults.seed), "seed"),
        "init": cfg.get("init", defaults.init),
        "second_init": cfg.get("second_init"),
        "singular_correction": cfg.get("singular_correction", False),
        "max_iter": _cast(int, cfg.get("max_iter", defaults.max_iter), "max_iter"),
        "mp_sweeps": _cast(int, cfg.get("mp_sweeps", defaults.mp_sweeps), "mp_sweeps"),
        "residual_tol": _cast(float, cfg.get("residual_tol", defaults.residual_tol),
                              "residual_tol"),
        "outdir": (cfg["outdir"] if cfg.get("outdir", "") != ""
                   else os.environ.get("FRACLANE_OUTDIR") or "fraclane_out"),
    }
    for key, kind, expected in (("singular_correction", bool, "true or false"),
                                ("outdir", str, "a string")):
        if not isinstance(out[key], kind):  # bool("false") is True
            raise ConfigurationError(f"{key} must be {expected}, got {out[key]!r}")
    _solver_config(out, out["init"])  # SolverConfig checks the solver settings
    if out["second_init"] is not None and out["second_init"] not in INITS:
        raise ConfigurationError(f"unknown second_init {out['second_init']!r}")
    unknown = sorted(set(cfg) - set(out) - {"n"})
    if unknown:
        raise ConfigurationError(f"unknown config keys {', '.join(map(repr, unknown))}")
    return out


def _solver_config(cfg: dict, init: str) -> SolverConfig:
    settings = {f.name: cfg[f.name] for f in dataclasses.fields(SolverConfig)}
    return SolverConfig(**dict(settings, init=init))


def _record(cfg: dict, verdict=None, regime=None, grid=None, pair=None, rel=None, gap=None,
            t0=None) -> dict:
    """The result record, and the only place that names its fields.  A field
    is null when its source is missing: the grid, the converged pair, its
    integral-identity report, the uniqueness gap or the start time."""

    def get(source, name):
        return None if source is None else getattr(source, name)

    def sup(w):
        return None if pair is None else float(np.max(np.abs(w)))

    def echo(value):  # a rational as its float where that is exact, else "a/b"
        if isinstance(value, Fraction):
            return float(value) if value == float(value) else str(value)
        return value

    energy = get(pair, "energy")
    return {
        "input": {key: echo(value) for key, value in cfg.items()},
        "regime": regime,
        "method": get(pair, "method"),
        "converged": pair is not None,
        "verdict": verdict,
        "residual_u": get(pair, "residual_u"),
        "residual_v": get(pair, "residual_v"),
        "energy_value": get(energy, "value"),
        "energy_kinetic": get(energy, "kinetic"),
        "energy_potential": get(energy, "potential"),
        "energy_norm": get(energy, "e_norm"),
        "min_u": get(pair, "min_u"),
        "min_v": get(pair, "min_v"),
        "sup_u": sup(get(pair, "u")),
        "sup_v": sup(get(pair, "v")),
        "rellich_lhs": get(rel, "lhs"),
        "rellich_rhs": get(rel, "rhs"),
        "rellich_rhs_factor": get(rel, "rhs_factor"),
        "rellich_residual": get(rel, "residual"),
        "rellich_cross_gap": get(rel, "cross_gap"),
        "rellich_star_shaped": get(rel, "star_shaped"),
        "rellich_corners_dropped": get(rel, "corners_dropped"),
        "rellich_fit_failures": get(rel, "boundary_fit_failures"),
        "alpha_u": get(rel, "alpha_u"),
        "alpha_v": get(rel, "alpha_v"),
        "quotient_u": get(rel, "quotient_u"),
        "quotient_v": get(rel, "quotient_v"),
        "uniqueness_gap_u": get(gap, "gap_u"),
        "uniqueness_gap_v": get(gap, "gap_v"),
        "uniqueness_s_hat": get(gap, "s_hat"),
        "symmetry": get(pair, "symmetry"),
        "n_nodes": get(grid, "n_nodes"),
        "grid_h": None if grid is None else list(grid.h),
        "version": __version__,
        "wall_time_s": None if t0 is None else time.perf_counter() - t0,
    }


RECORD_FIELDS = tuple(_record({}))


def _sign_obstructed(regime: str, domain: Domain) -> bool:
    """True when the integral identity rules out a positive pair: at or above
    the critical curve the interior factor is <= 0, while on a star-shaped
    domain the boundary term of any positive solution is > 0."""
    return regime in ("critical", "supercritical") and domain.is_star_shaped_wrt_origin()


def _operator(cfg: dict):
    """The operator of a validated config; a solve builds what it factors."""
    grid = build_grid(_domain_from_config(cfg), cfg["resolution"])
    return assemble(grid, cfg["s"], singular_correction=cfg["singular_correction"])


def _run_solve(cfg: dict, op=None) -> tuple:
    """Full pipeline for one problem.  Returns (record, pair_or_None, grid);
    the pair is None when any requested solve failed to converge.  Without
    `op`, the config's operator is built once the pair is known nonresonant."""
    t0 = time.perf_counter()
    if cfg["p"] is None or cfg["q"] is None:
        raise ConfigurationError("config needs exponents 'p' and 'q'")
    exps = ExponentPair(cfg["p"], cfg["q"])
    regime = nonresonant_regime(exps, _domain_from_config(cfg).dim, cfg["s"])
    if regime != "sublinear":  # superlinear runs start from the bump alone; echo that
        cfg = dict(cfg, init="bump", second_init=None)
    op = _operator(cfg) if op is None else op
    grid = op.grid
    try:
        pair = solve_system(op, exps, _solver_config(cfg, cfg["init"]))
    except NonconvergenceError as exc:
        verdict = f"nonconvergence: {exc}"
        if _sign_obstructed(regime, grid.domain):
            factor = float(exps.rhs_factor(grid.dim, cfg["s"]))
            verdict = (
                "nonexistence-consistent: solver did not converge, the domain is "
                f"star-shaped, and the interior factor {factor:.6g} is <= 0 while the "
                "boundary term of the integral identity is positive for any positive "
                "solution; consistent with nonexistence (not a proof). "
                f"Detail: {exc}"
            )
        return _record(cfg, verdict, regime, grid, t0=t0), None, grid
    rel = rellich_residual(pair, exps, grid, cfg["s"])
    gap = None
    if cfg["second_init"]:
        try:
            pair2 = solve_system(op, exps, _solver_config(cfg, cfg["second_init"]))
        except NonconvergenceError as exc:
            # the first pair's record stands; only the uniqueness gap is missing
            verdict = f"nonconvergence: second start {cfg['second_init']!r} failed: {exc}"
            return _record(cfg, verdict, regime, grid, pair, rel, t0=t0), None, grid
        gap = uniqueness_gap(pair, pair2)
    if _sign_obstructed(regime, grid.domain):
        verdict = (
            "discretization artifact likely: converged to a positive pair, but on a "
            "star-shaped domain the integral identity forbids one in this regime "
            f"(boundary term {rel.lhs:.6g} > 0 against interior factor "
            f"{rel.rhs_factor:.6g} <= 0, identity residual {rel.residual:.3g}); "
            "expect the pair to degenerate under refinement"
        )
    else:
        verdict = "existence: converged to a positive pair with accepted residuals"
    return _record(cfg, verdict, regime, grid, pair, rel, gap, t0), pair, grid


def _write_record(record, outdir: str, stem: str = "record") -> str:
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"{stem}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_solution(pair, grid, outdir: str, stem: str = "solution") -> str:
    """The bytes of `np.savetxt` (`%.18e` values, "," delimiter), streamed by
    row from each column's distinct doubles, formatted once and told apart
    by bit pattern, so that -0.0 keeps its sign."""
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"{stem}.csv")
    cells = []  # per column, each row's text with the separator after it
    for column, end in zip((*grid.x.T, pair.u, pair.v), [","] * (grid.dim + 1) + ["\n"]):
        bits, index = np.unique(np.asarray(column, dtype=float).view(np.int64), return_inverse=True)
        text = ["%.18e" % value + end for value in bits.view(float).tolist()]
        cells.append([text[i] for i in index.tolist()])
    with open(path, "w") as fh:
        fh.write(",".join(["x", "y"][:grid.dim] + ["u", "v"]) + "\n")
        fh.writelines(map("".join, zip(*cells)))
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
    p, q, s = (_rational(getattr(args, key), key) for key in ("p", "q", "s"))
    n = _cast(int, args.n, "dimension")
    exps = ExponentPair(p, q)
    regime = exps.regime(n, s)
    factor = exps.rhs_factor(n, s)
    print(f"regime: {regime}")
    print(f"rhs_factor: {float(factor):.12g}")
    return EXIT_OK


def cmd_phase_diagram(args) -> int:
    cfg_base = _load_config(args)
    if args.pairs is None and args.p_list and args.q_list:
        points = [(p, q) for p in _numbers(args.p_list, "--p-list item")
                  for q in _numbers(args.q_list, "--q-list item")]
    elif args.pairs is not None and args.p_list is None and args.q_list is None:
        items = args.pairs.split(",") if args.pairs else []  # "" is the empty sweep
        points = [tuple(_numbers(item, "--pairs item", ":")) for item in items]
        if not all(len(pt) == 2 for pt in points):
            raise ConfigurationError("--pairs items must look like p:q")
    else:
        raise ConfigurationError("phase-diagram needs either --pairs or both --p-list and --q-list")
    # the points differ only in p and q: the shared settings are validated,
    # and the one operator they share is built, before the first point, so
    # a sweep-wide configuration error exits 4 as it does for `solve`
    base = _validated({key: value for key, value in cfg_base.items() if key not in ("p", "q")})
    op = _operator(base)
    records = []
    for p, q in points:
        cfg = dict(base, p=p, q=q)
        try:
            record, _, _ = _run_solve(cfg, op)
        except ResonantProblemError as exc:
            record = _record(cfg, f"resonant-skipped: {exc}", "resonant")
        except ConfigurationError as exc:
            record = _record(cfg, f"configuration error: {exc}")
        records.append(record)
    _write_record(records, base["outdir"], "phase_diagram")
    csv_path = os.path.join(base["outdir"], "phase_diagram.csv")
    columns = ("p", "q", "regime", "converged", "method", "energy_value", "residual_u",
               "residual_v", "rellich_rhs_factor", "verdict")
    with open(csv_path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for record in records:
            verdict = record["verdict"].splitlines()[0] if record["verdict"] else ""
            row = dict(record, p=record["input"].get("p"), q=record["input"].get("q"),
                       verdict='"' + verdict.replace('"', '""') + '"')  # RFC 4180 doubling
            fh.write(",".join(str(row[column]) for column in columns) + "\n")
    print(f"{len(records)} points -> {csv_path}")
    for record in records:
        inp = record["input"]
        status = "ok" if record["converged"] else (record["regime"] or "failed")
        print(f"  p={inp.get('p')} q={inp.get('q')}: {status}")
    return EXIT_OK


def cmd_audit(args) -> int:
    cfg = _validated(_load_config(args))
    op = _operator(cfg)  # a kernel table until used: trials < 1 is refused before any matrix
    audit = maximum_principle_audit(op, trials=args.trials, seed=cfg["seed"])
    struct = operator_invariants(op)
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
    sub.add_argument("--domain-kind", dest="kind", choices=["interval", "rectangle", "disk"])
    sub.add_argument("--endpoints", nargs=2, type=float, metavar=("A", "B"))
    sub.add_argument("--sides", nargs=2, type=float, metavar=("LX", "LY"))
    sub.add_argument("--radius", type=float)
    sub.add_argument("--center", nargs="*", type=float)
    sub.add_argument("--resolution", type=int)
    sub.add_argument("--s", help="fractional order in (0,1) (accepts fractions like 1/3)")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--outdir", help="output directory (default $FRACLANE_OUTDIR or ./fraclane_out)")
    sub.add_argument("--singular-correction", action="store_true", default=None,
                     help="enable the central-cell curvature correction")


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraclane",
        description="Solve and verify the coupled fractional power system on bounded domains.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sol = subs.add_parser("solve", help="solve one problem and write record + solution")
    _add_domain_flags(sol)
    sol.add_argument("--p", help="first exponent (accepts fractions like 1/3)")
    sol.add_argument("--q", help="second exponent")
    sol.add_argument("--init", choices=INITS, help="sublinear regime: start of the fixed-point map")
    sol.add_argument("--second-init", dest="second_init", choices=INITS,
                     help="sublinear regime: run a second solve from this start "
                          "and report the gap")
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
    pha.add_argument("--pairs", help="comma-separated p:q list, e.g. 0.5:0.5,1/3:6")
    pha.add_argument("--p-list", dest="p_list", help="comma-separated p values (cartesian with --q-list)")
    pha.add_argument("--q-list", dest="q_list", help="comma-separated q values")
    # accepted and ignored, since the points run one after another:
    # perfbench/workloads.py still passes --jobs 1
    pha.add_argument("--jobs", type=int, help=argparse.SUPPRESS)
    pha.set_defaults(func=cmd_phase_diagram)

    aud = subs.add_parser("audit", help="maximum principle audit + operator structure checks")
    _add_domain_flags(aud)
    aud.add_argument("--trials", type=int, default=100)
    aud.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help/--version, 2 on a usage error
        return EXIT_CONFIG if exc.code else EXIT_OK
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
