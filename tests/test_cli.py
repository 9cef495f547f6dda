"""Command-line front end: argument handling, exit codes, record and table
outputs, round-trip reproducibility."""

import csv
import ctypes
import importlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy

import fraclane.cli
import fraclane.operator
from fraclane import Domain, ExponentPair, SolverConfig, assemble, build_grid, solve_system
from fraclane.cli import RECORD_FIELDS, _write_solution, main
from fraclane.errors import ConfigurationError, NonconvergenceError, ResonantProblemError

pytestmark = pytest.mark.usefixtures("isolated_outdir")


@pytest.fixture()
def isolated_outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACLANE_OUTDIR", str(tmp_path / "default_out"))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# classify


def test_classify_reference_cases(capsys):
    assert run("classify", "2", "2", "3", "0.5") == 0
    out = capsys.readouterr().out
    assert "critical" in out.splitlines()[0]
    assert "rhs_factor: 0" in out

    assert run("classify", "3", "3", "1", "0.5") == 0
    assert "superlinear_subcritical" in capsys.readouterr().out

    assert run("classify", "10", "10", "3", "0.5") == 0
    out = capsys.readouterr().out
    assert "supercritical" in out
    assert "rhs_factor: -" in out


def test_classify_accepts_fractions(capsys):
    assert run("classify", "1/3", "3", "1", "1/2") == 0
    assert "resonant" in capsys.readouterr().out


def test_classify_rejects_bad_input(capsys):
    assert run("classify", "2", "2", "0", "0.5") == 4
    assert run("classify", "2", "2", "1", "1.5") == 4
    assert run("classify", "2", "2", "one", "0.5") == 4
    assert run("classify", "x", "2", "1", "0.5") == 4


# ---------------------------------------------------------------------------
# solve: happy path, record schema, outputs


def test_solve_sublinear_writes_record_and_solution(tmp_path, capsys):
    out = tmp_path / "run1"
    code = run("solve", "--p", 0.5, "--q", 0.5, "--resolution", 32, "--outdir", out)
    assert code == 0
    record = json.loads((out / "record.json").read_text())
    assert set(record) == set(RECORD_FIELDS)
    assert record["regime"] == "sublinear"
    assert record["method"] == "minimize_sublinear"
    assert record["converged"] is True
    assert record["energy_value"] < 0
    assert record["min_u"] > 0 and record["min_v"] > 0
    assert record["verdict"].startswith("existence")
    assert record["wall_time_s"] > 0
    lines = (out / "solution.csv").read_text().splitlines()
    assert lines[0] == "x,u,v"
    assert len(lines) == 1 + 32
    printed = capsys.readouterr().out
    assert "regime=sublinear" in printed


def test_solve_superlinear_2d_solution_header(tmp_path):
    out = tmp_path / "run2d"
    code = run("solve", "--domain-kind", "disk", "--radius", 1.0, "--resolution", 12,
               "--p", 2, "--q", 2, "--outdir", out)
    assert code == 0
    record = json.loads((out / "record.json").read_text())
    assert record["regime"] == "superlinear_subcritical"
    assert record["method"] == "mountain_pass"
    lines = (out / "solution.csv").read_text().splitlines()
    assert lines[0] == "x,y,u,v"
    assert len(lines) == 1 + record["n_nodes"]


def _savetxt_bytes(pair, grid, path) -> bytes:
    """The writer's oracle: what `np.savetxt` writes for the same columns."""
    header = ",".join(["x", "y"][:grid.dim] + ["u", "v"])
    np.savetxt(path, np.column_stack([grid.x, pair.u, pair.v]), delimiter=",",
               header=header, comments="")
    return path.read_bytes()


def _solution_cases():
    interval, disk = build_grid(Domain.interval(-1.0, 1.0), 32), build_grid(Domain.disk(1.0), 12)
    rng = np.random.default_rng(7)
    signed_zeros = np.where(np.arange(32) % 3 == 0, -0.0, 0.0)
    subnormal = np.resize([5e-324, -5e-324, 2.5e-310, 1e-320, 0.0, -0.0], disk.n_nodes)
    special = np.resize([np.inf, -np.inf, np.nan, 1.0], disk.n_nodes)
    # a full-space pair from a random start: no two values of v coincide
    fullspace = solve_system(assemble(interval, 0.5), ExponentPair(0.5, 0.5),
                             SolverConfig(init="random"))
    assert fullspace.symmetry is None and np.unique(fullspace.v).size == interval.n_nodes
    return {
        "1d-signed-zeros-and-constant": (SimpleNamespace(u=signed_zeros, v=np.full(32, 0.25)),
                                         interval),
        "1d-random-start-pair": (fullspace, interval),
        "2d-subnormal-and-distinct": (SimpleNamespace(u=subnormal, v=rng.standard_normal(
            disk.n_nodes)), disk),
        "2d-inf-and-nan": (SimpleNamespace(u=special, v=-disk.x[:, 1]), disk),
    }


def test_solution_csv_is_savetxt_byte_for_byte(tmp_path):
    for name, (pair, grid) in _solution_cases().items():
        path = Path(_write_solution(pair, grid, str(tmp_path / name)))
        assert path.read_bytes() == _savetxt_bytes(pair, grid, tmp_path / f"{name}.oracle"), name
    text = (tmp_path / "1d-signed-zeros-and-constant" / "solution.csv").read_text()
    assert "-0.000000000000000000e+00" in text and ",0.000000000000000000e+00," in text


def test_solution_writer_streams_its_rows(tmp_path):
    """On the benchmark's disk the writer's traced peak stays well below a
    whole-file string (about 410 KB); a streamed writer peaks near 120 KB."""
    cfg = fraclane.cli._validated({"domain": {"kind": "disk", "radius": 1.0}, "resolution": 40,
                                   "p": 2, "q": 2, "s": 0.5, "outdir": str(tmp_path)})
    _, pair, grid = fraclane.cli._run_solve(cfg)
    _write_solution(pair, grid, str(tmp_path / "warm"))
    tracemalloc.start()
    try:
        path = Path(_write_solution(pair, grid, str(tmp_path)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == _savetxt_bytes(pair, grid, tmp_path / "oracle.csv")
    assert peak < 200_000, peak


def test_solve_second_init_reports_uniqueness_gap(tmp_path):
    out = tmp_path / "run_two"
    code = run("solve", "--p", 0.5, "--q", 0.5, "--resolution", 32,
               "--second-init", "random", "--outdir", out)
    assert code == 0
    record = json.loads((out / "record.json").read_text())
    assert record["uniqueness_gap_u"] is not None
    assert record["uniqueness_gap_u"] <= 1e-6
    assert record["uniqueness_s_hat"] == pytest.approx(1.0, abs=1e-6)


def test_second_start_runs_in_the_sublinear_regime_only(tmp_path, monkeypatch):
    # a superlinear solve starts from the bump whatever the start asked for,
    # so a second start would rerun the same computation and report a gap of 0
    calls = []
    solve_system = fraclane.cli.solve_system

    def counting_solve(*args):
        calls.append(args)
        return solve_system(*args)

    monkeypatch.setattr(fraclane.cli, "solve_system", counting_solve)
    out = tmp_path / "superlinear_two"
    assert run("solve", "--p", 2, "--q", 2, "--s", 0.25, "--resolution", 64,
               "--second-init", "random", "--outdir", out) == 0
    record = json.loads((out / "record.json").read_text())
    assert record["regime"] == "superlinear_subcritical" and record["converged"] is True
    assert len(calls) == 1
    for key in ("uniqueness_gap_u", "uniqueness_gap_v", "uniqueness_s_hat"):
        assert record[key] is None


def test_solve_uses_env_output_directory(isolated_outdir):
    assert run("solve", "--p", 0.5, "--q", 0.5, "--resolution", 16) == 0
    assert (isolated_outdir / "default_out" / "record.json").exists()


def test_solve_default_domain_from_n_in_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 1, "p": 0.5, "q": 0.5, "resolution": 16}))
    out = tmp_path / "from_cfg"
    assert run("solve", "--config", cfg, "--outdir", out) == 0
    record = json.loads((out / "record.json").read_text())
    assert record["input"]["domain"]["kind"] == "interval"


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 0.5, "q": 0.5, "resolution": 16}))
    out = tmp_path / "override"
    assert run("solve", "--config", cfg, "--q", 0.25, "--outdir", out) == 0
    record = json.loads((out / "record.json").read_text())
    assert record["input"]["q"] == 0.25


def _solved_domain(tmp_path, config, *flags, p=2, q=2):
    """Solve at resolution 12 with `config` as the config file; return the
    exit code and the record, which is None when the run wrote none."""
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "domain_out"
    code = run("solve", "--config", path, *flags, "--p", p, "--q", q, "--resolution", 12,
               "--outdir", out)
    record = out / "record.json"
    return code, json.loads(record.read_text()) if record.exists() else None


def test_a_domain_flag_overrides_its_key_of_the_config_domain(tmp_path):
    code, record = _solved_domain(tmp_path, {"domain": {"kind": "disk", "radius": 1.0}},
                                  "--radius", 3)
    assert code == 0
    assert record["input"]["domain"] == {"kind": "disk", "radius": 3.0}


def test_restating_the_kind_keeps_the_config_center(tmp_path):
    config = {"domain": {"kind": "disk", "radius": 1.0, "center": [0.3, 0.0]}}
    code, record = _solved_domain(tmp_path, config, "--domain-kind", "disk", "--radius", 2)
    assert code == 0
    assert record["input"]["domain"] == {"kind": "disk", "radius": 2.0, "center": [0.3, 0.0]}
    # another kind starts a new domain object: nothing of the disk carries over
    code, record = _solved_domain(tmp_path, config, "--domain-kind", "rectangle",
                                  "--sides", 2, 1)
    assert code == 0
    assert record["input"]["domain"] == {"kind": "rectangle", "sides": [2.0, 1.0]}


def test_the_verdict_is_the_one_of_the_restated_off_center_disk(tmp_path):
    # the origin lies outside the disk of radius 1 about (2, 0), so the
    # integral identity forbids nothing there: a converged pair is existence
    config = {"domain": {"kind": "disk", "radius": 1.0, "center": [2.0, 0.0]}}
    code, record = _solved_domain(tmp_path, config, "--domain-kind", "disk", "--radius", 1,
                                  p=4, q=4)
    assert code == 0
    assert record["input"]["domain"]["center"] == [2.0, 0.0]
    assert record["regime"] == "supercritical"
    assert record["verdict"].startswith("existence")


def test_a_domain_flag_overrides_the_default_domain_of_n(tmp_path, capsys):
    code, record = _solved_domain(tmp_path, {"n": 2}, "--radius", 2)
    assert code == 0
    assert record["input"]["domain"] == {"kind": "disk", "radius": 2.0, "center": [0.0, 0.0]}
    # n = 1 means the interval, which takes no radius
    out = tmp_path / "no_radius"
    assert run("solve", "--radius", 2, "--p", 2, "--q", 2, "--resolution", 16,
               "--outdir", out) == 4
    assert not out.exists()
    assert "interval does not take radius" in capsys.readouterr().err
    # restating the default's kind keeps its endpoints
    out = tmp_path / "interval"
    assert run("solve", "--domain-kind", "interval", "--p", 2, "--q", 2, "--resolution", 16,
               "--outdir", out) == 0
    record = json.loads((out / "record.json").read_text())
    assert record["input"]["domain"] == {"kind": "interval", "endpoints": [-1.0, 1.0]}


def test_a_center_without_coordinates_exits_4(tmp_path, capsys):
    code, record = _solved_domain(tmp_path, {"domain": {"kind": "disk", "radius": 1.0}},
                                  "--center")
    assert (code, record) == (4, None)
    code, record = _solved_domain(
        tmp_path, {"domain": {"kind": "disk", "radius": 1.0, "center": []}})
    assert (code, record) == (4, None)
    assert capsys.readouterr().err.count("disk center needs 2 coordinates") == 2


# ---------------------------------------------------------------------------
# solve: exit codes


def test_resonant_input_exits_3(tmp_path, capsys):
    out = tmp_path / "res"
    assert run("solve", "--p", 1, "--q", 1, "--resolution", 16, "--outdir", out) == 3
    assert not (out / "record.json").exists()
    assert "resonant" in capsys.readouterr().err


def _orbits(domain, resolution):
    return len(set(build_grid(domain, resolution).orbit))


def test_solve_factors_the_fine_reduced_operator_first(tmp_path, monkeypatch):
    """The benchmark's set-up window ends at the first factorization, so the
    coarse-to-fine levels must factor their operators after the fine one;
    on the disk every level factors its reduced form, and no N x N matrix."""
    sizes = []
    cho_factor = fraclane.operator.cho_factor

    def recording_cho_factor(matrix, *args, **kwargs):
        sizes.append(matrix.shape[0])
        return cho_factor(matrix, *args, **kwargs)

    monkeypatch.setattr(fraclane.operator, "cho_factor", recording_cho_factor)
    assert run("solve", "--domain-kind", "disk", "--radius", 1, "--resolution", 32,
               "--p", 2, "--q", 2, "--s", 0.5, "--outdir", tmp_path / "disk") == 0
    assert sizes == [_orbits(Domain.disk(1.0), res) for res in (32, 16)]


def test_configuration_errors_exit_4(tmp_path, capsys):
    cfg = tmp_path / "bad_n.json"
    cfg.write_text(json.dumps({"n": 3, "p": 2, "q": 2}))
    assert run("solve", "--config", cfg) == 4

    assert run("solve", "--p", 2, "--q", 2, "--resolution", 4) == 4
    assert run("solve", "--p", 2, "--q", 2, "--s", 1.5) == 4
    assert run("solve", "--q", 2) == 4  # missing p

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run("solve", "--config", broken, "--p", 2, "--q", 2) == 4

    mism = tmp_path / "mismatch.json"
    mism.write_text(json.dumps({
        "n": 1, "domain": {"kind": "disk", "radius": 1.0}, "p": 2, "q": 2}))
    assert run("solve", "--config", mism) == 4
    capsys.readouterr()



def test_unknown_config_keys_exit_4(tmp_path, capsys):
    # a misspelt key, and the solver choice that old records still echo
    for extra in ({"resolutoin": 16}, {"solver": "auto"}):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 0.5, "q": 0.5, "resolution": 16, **extra}))
        out = tmp_path / "unknown"
        assert run("solve", "--config", cfg, "--outdir", out) == 4
        assert run("phase-diagram", "--config", cfg, "--pairs", "0.5:0.5,2:2",
                   "--outdir", out) == 4
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count(f"unknown config keys {next(iter(extra))!r}") == 2


def test_domain_keys_of_another_kind_exit_4(tmp_path, capsys):
    out = tmp_path / "contradictory"
    assert run("solve", "--domain-kind", "disk", "--radius", 1, "--sides", 5, 5,
               "--endpoints", 0, 3, "--p", 2, "--q", 2, "--resolution", 16,
               "--outdir", out) == 4
    assert "disk does not take endpoints, sides" in capsys.readouterr().err
    assert not out.exists()
    assert run("solve", "--domain-kind", "interval", "--endpoints", 0, 3, "--center", 1,
               "--p", 2, "--q", 2, "--resolution", 16, "--outdir", out) == 4

def test_malformed_config_values_exit_4(tmp_path, capsys):
    for index, bad in enumerate([
        {"p": "abc"},
        {"resolution": "x"},
        {"domain": {"kind": "interval", "endpoints": [1]}},
        {"domain": {"kind": "rectangle", "sides": [1, "a"]}},
        {"residual_tol": "nan"},
        {"seed": -1},
        {"max_iter": 0},
        {"mp_sweeps": -5},
        {"s": "1/0"},
        {"domain": None},
        {"domain": [-1, 1]},
    ]):
        cfg = tmp_path / f"bad{index}.json"
        cfg.write_text(json.dumps({"p": 2, "q": 2, "resolution": 16, **bad}))
        assert run("solve", "--config", cfg) == 4, bad
        if "p" in bad:
            continue  # phase-diagram sets p itself
        # a setting every point shares fails the sweep before its first point
        out = tmp_path / f"sweep{index}"
        assert run("phase-diagram", "--config", cfg, "--pairs", "0.5:0.5,2:2",
                   "--outdir", out) == 4, bad
        assert not out.exists()
    # a domain flag leaves a domain that is no JSON object to be refused
    assert run("solve", "--config", tmp_path / "bad10.json", "--endpoints", -1, 1) == 4
    # a negative seed as a flag, where a random start would use it
    assert run("solve", "--p", 0.5, "--q", 0.5, "--resolution", 16, "--init", "random",
               "--seed", -1, "--outdir", tmp_path / "negative_seed") == 4
    assert not (tmp_path / "negative_seed").exists()
    for trials in (0, -3):
        assert run("audit", "--resolution", 16, "--trials", trials) == 4
    for flags in (["--max-iter", -7], ["--mp-sweeps", -5], ["--s", "1/0"]):
        assert run("solve", "--p", 2, "--q", 2, "--resolution", 16, *flags,
                   "--outdir", tmp_path / "bad_flag") == 4, flags
    assert not (tmp_path / "bad_flag").exists()
    err = capsys.readouterr().err
    assert "seed must be nonnegative, got -1" in err
    assert "trials must be at least 1, got 0" in err
    assert "trials must be at least 1, got -3" in err
    assert "max_iter must be at least 1, got 0" in err
    assert "mp_sweeps must be at least 1, got -5" in err
    assert "s must be a number, got '1/0'" in err
    assert err.count("invalid domain [-1, 1]") == 3


def test_config_flag_and_outdir_take_their_json_types_only(tmp_path, capsys):
    # a non-empty string such as "false" must not switch the correction on,
    # and an outdir that is no string must fail before any solving
    for index, bad in enumerate([{"singular_correction": "false"},
                                 {"singular_correction": 1},
                                 {"outdir": 5},
                                 {"outdir": ["out"]}]):
        cfg = tmp_path / f"typed{index}.json"
        cfg.write_text(json.dumps({"p": 0.5, "q": 0.5, "resolution": 16, **bad}))
        assert run("solve", "--config", cfg) == 4, bad
        assert run("phase-diagram", "--config", cfg, "--pairs", "0.5:0.5") == 4, bad
    assert not (tmp_path / "default_out").exists()
    err = capsys.readouterr().err
    assert err.count("singular_correction must be true or false, got 'false'") == 2
    assert err.count("outdir must be a string, got 5") == 2
    cfg = tmp_path / "typed.json"
    for flag in (False, True):
        cfg.write_text(json.dumps({"p": 0.5, "q": 0.5, "resolution": 16,
                                   "singular_correction": flag, "outdir": str(tmp_path / "ok")}))
        assert run("solve", "--config", cfg) == 0
        record = json.loads((tmp_path / "ok" / "record.json").read_text())
        assert record["input"]["singular_correction"] is flag
    capsys.readouterr()


def test_only_a_missing_or_empty_outdir_means_the_default(tmp_path, capsys):
    # a falsy value of another type is no directory name either
    for index, bad in enumerate([0, False, [], {}, None]):
        cfg = tmp_path / f"falsy{index}.json"
        cfg.write_text(json.dumps({"p": 0.5, "q": 0.5, "resolution": 16, "outdir": bad}))
        assert run("solve", "--config", cfg) == 4, bad
        assert run("phase-diagram", "--config", cfg, "--pairs", "0.5:0.5") == 4, bad
    assert not (tmp_path / "default_out").exists()
    assert capsys.readouterr().err.count("outdir must be a string, got") == 10
    cfg.write_text(json.dumps({"p": 0.5, "q": 0.5, "resolution": 16, "outdir": ""}))
    assert run("solve", "--config", cfg) == 0
    assert (tmp_path / "default_out" / "record.json").exists()
    capsys.readouterr()


def test_the_zero_start_is_an_unknown_init(tmp_path, capsys):
    # 0 is a fixed point of the sublinear map, so no run from it could converge
    out = tmp_path / "zero"
    for flag in ("--init", "--second-init"):
        assert run("solve", "--p", 0.5, "--q", 0.5, "--resolution", 16, flag, "zero",
                   "--outdir", out) == 4, flag
    cfg = tmp_path / "zero.json"
    for key in ("init", "second_init"):
        cfg.write_text(json.dumps({"p": 0.5, "q": 0.5, "resolution": 16, key: "zero"}))
        assert run("solve", "--config", cfg, "--outdir", out) == 4, key
    assert not out.exists()
    err = capsys.readouterr().err
    assert "unknown init 'zero'" in err and "unknown second_init 'zero'" in err


def test_a_json_boolean_is_not_a_number(tmp_path, capsys):
    # true read as 1 or 1.0: a residual tolerance of 1.0 accepts any pair
    cases = [{"residual_tol": True, "seed": True, "mp_sweeps": True}]
    cases += [{key: True} for key in ("residual_tol", "seed", "mp_sweeps", "max_iter",
                                      "resolution", "s", "n")]
    for index, bad in enumerate(cases):
        cfg = tmp_path / f"bool{index}.json"
        cfg.write_text(json.dumps({"p": 2, "q": 2, "resolution": 16, **bad}))
        assert run("solve", "--config", cfg) == 4, bad
        assert run("phase-diagram", "--config", cfg, "--pairs", "2:2") == 4, bad
    for key in ("p", "q"):
        cfg.write_text(json.dumps({"p": 2, "q": 2, "resolution": 16, key: False}))
        assert run("solve", "--config", cfg) == 4, key
    assert not (tmp_path / "default_out").exists()
    err = capsys.readouterr().err
    assert err.count("residual_tol must be a number, got True") == 2
    assert err.count("seed must be an integer, got True") == 4  # the first bad key of case 0
    assert err.count("p must be a number, got False") == 1


def test_an_empty_outdir_variable_means_the_default(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACLANE_OUTDIR", "")
    assert run("solve", "--p", 0.5, "--q", 0.5, "--resolution", 16) == 0
    assert (tmp_path / "fraclane_out" / "record.json").exists()


def test_validated_defaults_are_the_solver_config_defaults():
    cfg = fraclane.cli._validated({})
    defaults = SolverConfig()
    for key in ("max_iter", "mp_sweeps", "residual_tol", "seed", "init"):
        assert cfg[key] == getattr(defaults, key), key
    assert fraclane.cli._solver_config(cfg, cfg["init"]) == defaults


def test_integer_keys_take_integral_values_only(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for key, value in (("resolution", 16.5), ("seed", 1.5), ("max_iter", 50.5),
                       ("mp_sweeps", 30.5), ("n", 1.5)):
        cfg.write_text(json.dumps({"p": 0.5, "q": 0.5, "resolution": 16, key: value}))
        assert run("solve", "--config", cfg) == 4, key
    for index, value in enumerate((16.0, "16")):
        cfg.write_text(json.dumps({"p": 0.5, "q": 0.5, "resolution": value}))
        out = tmp_path / f"integral{index}"
        assert run("solve", "--config", cfg, "--outdir", out) == 0
        assert json.loads((out / "record.json").read_text())["input"]["resolution"] == 16
    capsys.readouterr()


def test_usage_errors_exit_4(capsys):
    assert run("solve", "--resolution", "abc") == 4
    assert run("solve", "--no-such-flag") == 4
    assert run() == 4  # no subcommand
    assert run("--help") == 0
    assert run("solve", "--help") == 0
    assert run("--version") == 0
    capsys.readouterr()


def test_one_parser_serves_every_call():
    assert fraclane.cli.build_parser() is fraclane.cli.build_parser()


def test_a_reused_parser_carries_nothing_from_call_to_call(tmp_path, capsys):
    # each call of one process answers as a call in a fresh process would
    solve = ["solve", "--p", 0.5, "--q", 0.5, "--resolution", 16]
    calls = [solve + ["--singular-correction"], solve, solve + ["--init", "random"], solve,
             ["classify", "2", "2", "1", "0.5"], ["solve", "--resolution", "x"], ["--version"]]

    def outcome(argv, out):
        code = run(*argv, "--outdir", out) if argv[0] == "solve" else run(*argv)
        text = capsys.readouterr().out.replace(str(out), "OUT")
        if not (out / "record.json").exists():
            return code, text, None
        record = json.loads((out / "record.json").read_text())
        record.pop("wall_time_s"), record["input"].pop("outdir")
        return code, text, record

    alone = []
    for index, argv in enumerate(calls):
        fraclane.cli.build_parser.cache_clear()
        alone.append(outcome(argv, tmp_path / f"alone{index}"))
    fraclane.cli.build_parser.cache_clear()
    in_turn = [outcome(argv, tmp_path / f"turn{index}") for index, argv in enumerate(calls)]
    assert in_turn == alone
    assert [code for code, _, _ in alone] == [0, 0, 0, 0, 0, 4, 0]
    corrections = [record["input"]["singular_correction"] for _, _, record in alone[:4]]
    inits = [record["input"]["init"] for _, _, record in alone[:4]]
    assert corrections == [True, False, False, False]
    assert inits == ["bump", "bump", "random", "bump"]


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
def test_repeated_calls_do_not_raise_the_peak_rss():
    # a parser built per call left the peak about 1.3 MB higher after 1000
    # calls.  The peak is VmHWM, the high-water mark of the child's own
    # memory: a child's ru_maxrss starts at its parent's RSS, here pytest's.
    src = Path(fraclane.cli.__file__).resolve().parents[1]
    code = ("import contextlib, os\n"
            "from fraclane.cli import main\n"
            "def peak_after(calls):\n"
            "    with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
            "        for _ in range(calls):\n"
            "            main(['classify', '2', '2', '1', '0.5'])\n"
            "    with open('/proc/self/status') as status:\n"
            "        return next(int(line.split()[1]) for line in status\n"
            "                    if line.startswith('VmHWM:'))\n"
            "warm = peak_after(50)\n"
            "print(peak_after(1000) - warm)\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 512  # KiB


def test_nonconvergence_exits_2_with_record(tmp_path, capsys):
    out = tmp_path / "hard"
    code = run("solve", "--p", 0.5, "--q", 0.5, "--resolution", 16,
               "--residual-tol", 1e-30, "--max-iter", 50, "--outdir", out)
    assert code == 2
    record = json.loads((out / "record.json").read_text())
    assert set(record) == set(RECORD_FIELDS)  # schema stable on failure too
    assert record["converged"] is False
    assert not (out / "solution.csv").exists()
    capsys.readouterr()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p, q", [(0.01, 2), (0.01, 0.01)])
def test_tiny_exponents_are_solved(tmp_path, capsys, p, q):
    # pq < 1 is well posed however small p is; the energy density |A u|^((p+1)/p)
    # (exponent 101 here) is never evaluated on the way to the solution
    out = tmp_path / "tiny_p"
    assert run("solve", "--resolution", 64, "--p", p, "--q", q, "--outdir", out) == 0
    record = json.loads((out / "record.json").read_text())
    assert record["regime"] == "sublinear" and record["converged"] is True
    assert record["min_u"] > 0 and record["min_v"] > 0
    capsys.readouterr()


def test_failed_second_start_exits_2_with_first_pair_record(tmp_path, monkeypatch, capsys):
    solves = []

    def second_fails(op, exps, cfg):
        solves.append(cfg.init)
        if len(solves) == 2:
            raise NonconvergenceError("converged to a non-positive pair")
        return solve_system(op, exps, cfg)

    monkeypatch.setattr(fraclane.cli, "solve_system", second_fails)
    out = tmp_path / "second"
    code = run("solve", "--p", 0.5, "--q", 0.5, "--resolution", 32,
               "--second-init", "random", "--outdir", out)
    assert code == 2 and solves == ["bump", "random"]
    record = json.loads((out / "record.json").read_text())
    assert set(record) == set(RECORD_FIELDS)
    # the first (bump) start converged and its record is complete
    assert record["converged"] is True
    assert record["min_u"] > 0 and record["min_v"] > 0
    assert record["rellich_residual"] is not None
    assert record["uniqueness_gap_u"] is None and record["uniqueness_gap_v"] is None
    assert record["verdict"].startswith("nonconvergence: second start 'random'")
    assert "non-positive pair" in record["verdict"]
    assert not (out / "solution.csv").exists()
    capsys.readouterr()


def test_supercritical_convergence_is_flagged_as_artifact(tmp_path):
    out = tmp_path / "artifact"
    code = run("solve", "--domain-kind", "disk", "--radius", 1.0, "--resolution", 16,
               "--p", 4, "--q", 4, "--mp-sweeps", 60, "--outdir", out)
    assert code == 0
    record = json.loads((out / "record.json").read_text())
    assert record["regime"] == "supercritical"
    assert record["rellich_rhs_factor"] < 0
    assert record["rellich_lhs"] > 0
    assert record["verdict"].startswith("discretization artifact likely")


@pytest.mark.parametrize("domain, s, kind", [
    ([], "1/4", "nonexistence-consistent"),  # (-1, 1): the sweep's critical point
    (["--domain-kind", "disk", "--radius", 1], "1/2", "nonexistence-consistent"),
    (["--domain-kind", "disk", "--radius", 1, "--center", 2, 0], "1/2", "nonconvergence"),
])
def test_critical_nonconvergence_verdict_needs_a_star_shaped_domain(tmp_path, monkeypatch,
                                                                    capsys, domain, s, kind):
    # (3, 3) is critical at n = 1, s = 1/4 and at n = 2, s = 1/2; a failed
    # solve there is consistent with nonexistence only when the identity's
    # boundary term is positive, i.e. on a domain star-shaped about 0
    def failing_solve(*args):
        raise NonconvergenceError("mountain pass failed after 4 attempts")

    monkeypatch.setattr(fraclane.cli, "solve_system", failing_solve)
    out = tmp_path / "critical"
    assert run("solve", *domain, "--resolution", 12, "--s", s, "--p", 3, "--q", 3,
               "--outdir", out) == 2
    record = json.loads((out / "record.json").read_text())
    assert set(record) == set(RECORD_FIELDS)
    assert record["regime"] == "critical" and record["converged"] is False
    assert record["verdict"].split(":", 1)[0] == kind
    assert record["verdict"].endswith("mountain pass failed after 4 attempts")
    capsys.readouterr()


# ---------------------------------------------------------------------------
# round trip


def test_record_round_trip_is_bitwise(tmp_path):
    # the superlinear solve starts from the bump and makes no second start,
    # whatever was asked; its echo says so, and reruns to the same record.
    # A rational whose float is inexact is echoed as "a/b" and read back exactly.
    for name, argv, regime, echoed in (
            ("sublinear", ("--resolution", 32, "--p", 0.5, "--q", 0.5, "--init", "random",
                           "--seed", 5),
             "sublinear", {"init": "random", "second_init": None, "s": 0.5}),
            ("superlinear", ("--resolution", 32, "--p", 2, "--q", 2, "--s", 0.25,
                             "--init", "random", "--second-init", "random"),
             "superlinear_subcritical", {"init": "bump", "second_init": None, "p": 2.0}),
            ("critical", ("--resolution", 16, "--p", 5, "--q", 5, "--s", "1/3"),
             "critical", {"init": "bump", "s": "1/3", "p": 5.0})):
        out1 = tmp_path / f"{name}1"
        assert run("solve", *argv, "--outdir", out1) == 0
        first = json.loads((out1 / "record.json").read_text())
        assert first["regime"] == regime
        assert {key: first["input"][key] for key in echoed} == echoed

        cfg2 = tmp_path / f"{name}.json"
        cfg2.write_text(json.dumps(first["input"]))
        out2 = tmp_path / f"{name}2"
        assert run("solve", "--config", cfg2, "--outdir", out2) == 0
        second = json.loads((out2 / "record.json").read_text())

        first.pop("wall_time_s"), second.pop("wall_time_s")
        first["input"].pop("outdir"), second["input"].pop("outdir")
        assert first == second
        sol1 = (out1 / "solution.csv").read_text()
        sol2 = (out2 / "solution.csv").read_text()
        assert sol1 == sol2


# ---------------------------------------------------------------------------
# phase diagram


def test_phase_diagram_sweep(tmp_path):
    out = tmp_path / "sweep"
    code = run("phase-diagram", "--pairs", "0.25:0.25,0.5:0.5,2:2,3:3,1:1",
               "--resolution", 32, "--outdir", out)
    assert code == 0
    rows = json.loads((out / "phase_diagram.json").read_text())
    assert len(rows) == 5
    by_p = {row["input"]["p"]: row for row in rows}
    for p in (0.25, 0.5):
        assert by_p[p]["regime"] == "sublinear"
        assert by_p[p]["method"] == "minimize_sublinear"
        assert by_p[p]["converged"] is True
    for p in (2.0, 3.0):
        assert by_p[p]["regime"] == "superlinear_subcritical"
        assert by_p[p]["method"] == "mountain_pass"
        assert by_p[p]["converged"] is True
    assert by_p[1.0]["regime"] == "resonant"
    assert by_p[1.0]["converged"] is False
    assert by_p[1.0]["verdict"].startswith("resonant-skipped")
    for row in rows:
        assert set(row) == set(RECORD_FIELDS)

    csv_lines = (out / "phase_diagram.csv").read_text().splitlines()
    assert csv_lines[0].startswith("p,q,regime,converged,method")
    assert len(csv_lines) == 6



def test_entry_points_agree_on_a_rational_order(tmp_path, capsys):
    """(5, 5) at n = 1, s = 1/3 lies on the critical curve; every entry point
    reads the text 1/3 exactly, and a rational exponent is accepted too."""
    assert run("classify", 5, 5, 1, "1/3") == 0
    assert "regime: critical" in capsys.readouterr().out
    out = tmp_path / "rational"
    assert run("phase-diagram", "--pairs", "5:5,1/3:6", "--s", "1/3", "--resolution", 16,
               "--outdir", out) == 0
    rows = json.loads((out / "phase_diagram.json").read_text())
    assert [row["regime"] for row in rows] == ["critical", "superlinear_subcritical"]
    assert [(row["input"]["p"], row["input"]["s"]) for row in rows] == [(5.0, "1/3"),
                                                                       ("1/3", "1/3")]
    assert rows[1]["converged"] is True
    assert (out / "phase_diagram.csv").read_text().splitlines()[2].startswith("1/3,6.0,")


def test_entry_points_reject_an_order_whose_float_is_one(tmp_path, capsys):
    """1 - 2^-60 lies in (0, 1), but the kernel is built from its float, 1.0:
    every entry point rejects it, quoting it as given, with one message."""
    near_one = Fraction(2**60 - 1, 2**60)
    message = f"fractional order must lie in (0,1), got {near_one}"
    assert run("classify", 2, 2, 1, near_one) == 4
    out = tmp_path / "near_one"
    for command in (["solve", "--p", 2, "--q", 2], ["phase-diagram", "--pairs", "2:2"], ["audit"]):
        assert run(*command, "--resolution", 16, "--s", near_one, "--outdir", out) == 4, command
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [f"configuration error: {message}"] * 4
    for order in (near_one, str(near_one)):  # the library reads the order's text too
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            ExponentPair(2, 2).regime(1, order)
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            assemble(build_grid(Domain.interval(-1.0, 1.0), 16), order)


def test_solvers_reject_a_resonant_pair_with_the_sweeps_text(tmp_path):
    out = tmp_path / "resonant"
    assert run("phase-diagram", "--pairs", "2:1/2", "--resolution", 16, "--outdir", out) == 0
    (row,) = json.loads((out / "phase_diagram.json").read_text())
    op = assemble(build_grid(Domain.interval(-1.0, 1.0), 16), 0.5)
    with pytest.raises(ResonantProblemError) as rejected:
        solve_system(op, ExponentPair(2, Fraction(1, 2)))
    assert row["verdict"] == f"resonant-skipped: {rejected.value}"


def test_phase_diagram_records_a_bad_point_and_goes_on(tmp_path, capsys):
    out = tmp_path / "bad_point"
    assert run("phase-diagram", "--pairs", "0:1,1/2:1/2", "--resolution", 16,
               "--outdir", out) == 0
    rows = json.loads((out / "phase_diagram.json").read_text())
    assert [row["verdict"].split(":", 1)[0] for row in rows] == ["configuration error",
                                                                 "existence"]
    assert rows[0]["verdict"] == "configuration error: exponents must be positive"
    assert all(set(row) == set(RECORD_FIELDS) for row in rows)
    capsys.readouterr()


def test_phase_diagram_csv_quotes_embedded_quotes(tmp_path, monkeypatch):
    def failing_solve(*args):
        raise NonconvergenceError('stopped at "it\'s"')

    monkeypatch.setattr(fraclane.cli, "solve_system", failing_solve)
    out = tmp_path / "quote"
    assert run("phase-diagram", "--pairs", "0.5:0.5", "--resolution", 16, "--outdir", out) == 0
    with open(out / "phase_diagram.csv", newline="") as fh:
        header, row = list(csv.reader(fh))
    assert len(row) == len(header)
    assert row[-1] == "nonconvergence: stopped at \"it's\""

def _without_run_details(record):
    record = dict(record, input=dict(record["input"]))
    del record["wall_time_s"], record["input"]["outdir"]
    return record


def test_phase_diagram_assembles_one_operator(tmp_path, monkeypatch):
    calls = []
    assemble = fraclane.cli.assemble

    def counting_assemble(*args, **kwargs):
        calls.append(args)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(fraclane.cli, "assemble", counting_assemble)
    pairs = ["0.5:0.5", "2:2", "3:3"]
    singles = []
    for pair in pairs:
        out = tmp_path / f"alone{pair}"
        assert run("phase-diagram", "--pairs", pair, "--resolution", 32, "--outdir", out) == 0
        singles += json.loads((out / "phase_diagram.json").read_text())
    calls.clear()
    out = tmp_path / "swept"
    assert run("phase-diagram", "--pairs", ",".join(pairs), "--resolution", 32,
               "--outdir", out) == 0
    assert len(calls) == 1
    swept = json.loads((out / "phase_diagram.json").read_text())
    assert ([_without_run_details(r) for r in swept]
            == [_without_run_details(r) for r in singles])


def test_phase_diagram_exits_4_on_a_sweep_wide_configuration_error(tmp_path, capsys):
    """A failed build or an invalid shared setting stops the sweep before its
    first point, as `solve` stops; an empty sweep still succeeds."""
    for bad in (["--resolution", 4], ["--resolution", 32, "--s", 1.5],
                ["--domain-kind", "rectangle", "--resolution", 32]):
        out = tmp_path / "bad"
        assert run("phase-diagram", "--pairs", "0.5:0.5,2:2", *bad, "--outdir", out) == 4, bad
        assert not out.exists()
        assert run("solve", "--p", 2, "--q", 2, *bad, "--outdir", out) == 4, bad
    assert "resolution must be an integer" in capsys.readouterr().err
    assert run("phase-diagram", "--pairs", "", "--outdir", tmp_path / "empty") == 0


def test_phase_diagram_empty_sweep(tmp_path):
    out = tmp_path / "empty"
    assert run("phase-diagram", "--pairs", "", "--outdir", out) == 0
    assert json.loads((out / "phase_diagram.json").read_text()) == []
    assert len((out / "phase_diagram.csv").read_text().splitlines()) == 1


def test_phase_diagram_cartesian_lists_and_jobs(tmp_path):
    out1 = tmp_path / "cart1"
    out2 = tmp_path / "cart2"
    args = ("--p-list", "0.25,0.5", "--q-list", "0.5,2", "--resolution", 24)
    assert run("phase-diagram", *args, "--outdir", out1) == 0
    # --jobs is still accepted, and ignored: the points run one after another
    assert run("phase-diagram", *args, "--jobs", 2, "--outdir", out2) == 0
    rows1 = json.loads((out1 / "phase_diagram.json").read_text())
    rows2 = json.loads((out2 / "phase_diagram.json").read_text())
    assert len(rows1) == 4
    assert rows1[3]["regime"] == "resonant"  # (0.5, 2) sits on p*q = 1
    assert ([_without_run_details(r) for r in rows1]
            == [_without_run_details(r) for r in rows2])


def test_phase_diagram_requires_a_sweep_definition(capsys):
    assert run("phase-diagram") == 4
    capsys.readouterr()


def test_phase_diagram_takes_pairs_or_lists_not_both(tmp_path, capsys):
    for lists in (["--p-list", 2, "--q-list", 2], ["--p-list", 2], ["--q-list", 2]):
        out = tmp_path / "both"
        assert run("phase-diagram", "--pairs", "1/2:1/2", *lists, "--resolution", 16,
                   "--outdir", out) == 4, lists
        assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("phase-diagram needs either --pairs or both --p-list and --q-list") == 3


def test_phase_diagram_rejects_malformed_number_lists(capsys):
    assert run("phase-diagram", "--p-list", "a", "--q-list", "1") == 4
    assert run("phase-diagram", "--p-list", "1", "--q-list", "0.5,b") == 4
    assert run("phase-diagram", "--pairs", "0.5:x") == 4
    assert run("phase-diagram", "--pairs", "0.5:0.5:0.5") == 4
    # an empty item is malformed in every list; only an empty --pairs is the empty sweep
    assert run("phase-diagram", "--pairs", ",") == 4
    assert run("phase-diagram", "--pairs", "0.5:0.5,") == 4
    assert run("phase-diagram", "--p-list", "0.5,", "--q-list", "1") == 4
    err = capsys.readouterr().err
    assert err.count("--pairs item must be a number, got ''") == 2
    assert "--p-list item must be a number, got ''" in err


# ---------------------------------------------------------------------------
# audit


def test_audit_command(capsys):
    assert run("audit", "--resolution", 32, "--trials", 25) == 0
    out = capsys.readouterr().out
    assert "symmetric: ok" in out
    assert "positivity trials: 25/25 passed" in out


def test_audit_takes_the_default_domain_of_n(tmp_path, capsys):
    cfg = tmp_path / "disk.json"
    cfg.write_text(json.dumps({"n": 2, "resolution": 10}))
    assert run("audit", "--config", cfg, "--trials", 3) == 0
    assert "positivity trials: 3/3 passed" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# benchmark hooks


def _scipy_blas_threads():
    """The thread count of SciPy's bundled OpenBLAS, or None where SciPy's
    BLAS is another library."""
    for path in (Path(scipy.__file__).parent.parent / "scipy.libs").glob("libscipy_openblas-*.so"):
        try:
            return ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD).scipy_openblas_get_num_threads()
        except (OSError, AttributeError):
            pass
    return None


class _StopAtFactor(BaseException):
    pass


def test_reduced_solve_factors_through_the_module_global_on_one_thread(tmp_path, monkeypatch):
    """perfbench patches `fraclane.operator.cho_factor`, ends its set-up window
    at the first call and stops a set-up case by raising a BaseException out
    of it; the SciPy BLAS thread count must survive both ways out."""
    argv = ("solve", "--domain-kind", "disk", "--radius", 1, "--resolution", 16,
            "--p", 2, "--q", 2, "--s", 0.5, "--outdir", tmp_path / "disk")
    before = _scipy_blas_threads()
    calls = []
    cho_factor = fraclane.operator.cho_factor

    def recording(matrix, *args, **kwargs):
        calls.append((matrix.shape[0], _scipy_blas_threads()))
        return cho_factor(matrix, *args, **kwargs)

    monkeypatch.setattr(fraclane.operator, "cho_factor", recording)
    assert run(*argv) == 0
    record = json.loads((tmp_path / "disk" / "record.json").read_text())
    assert record["symmetry"] == {"group_order": 8, "orbits": _orbits(Domain.disk(1.0), 16)}
    assert calls == [(record["symmetry"]["orbits"], None if before is None else 1)]
    assert _scipy_blas_threads() == before

    def stopping(matrix, *args, **kwargs):
        cho_factor(matrix, *args, **kwargs)
        raise _StopAtFactor

    monkeypatch.setattr(fraclane.operator, "cho_factor", stopping)
    with pytest.raises(_StopAtFactor):
        run(*argv)
    assert _scipy_blas_threads() == before


def test_record_says_where_it_solved(tmp_path):
    out = tmp_path / "disk"
    assert run("solve", "--domain-kind", "disk", "--radius", 1, "--resolution", 40,
               "--p", 2, "--q", 2, "--s", 0.5, "--outdir", out) == 0
    assert json.loads((out / "record.json").read_text())["symmetry"] == {
        "group_order": 8, "orbits": 165}
    # a random start stays in the full space, and so does a critical diagnostic
    assert run("solve", "--resolution", 32, "--p", 0.5, "--q", 0.5, "--init", "random",
               "--outdir", tmp_path / "random") == 0
    assert run("phase-diagram", "--pairs", "3:3", "--resolution", 32, "--s", 0.25,
               "--outdir", tmp_path / "critical") == 0
    random_record = json.loads((tmp_path / "random" / "record.json").read_text())
    (critical,) = json.loads((tmp_path / "critical" / "phase_diagram.json").read_text())
    assert random_record["converged"] and random_record["symmetry"] is None
    assert critical["regime"] == "critical" and critical["symmetry"] is None


def test_benchmark_hooks_name_existing_globals(monkeypatch):
    """perfbench traces the package by replacing these attributes; a refactor
    that drops one must fail here, not only in a traced benchmark run."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing into perfbench/
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, *_ in spans.LAYER_TARGETS if attr not in vars(owner)]
    assert missing == []
