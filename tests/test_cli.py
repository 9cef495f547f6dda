"""Command-line front end: argument handling, exit codes, record and table
outputs, round-trip reproducibility."""

import csv
import importlib
import json
import sys
from pathlib import Path

import pytest

import fraclane.cli
import fraclane.operator
from fraclane import Domain, SolverConfig, build_grid
from fraclane.cli import RECORD_FIELDS, main
from fraclane.errors import NonconvergenceError

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


# ---------------------------------------------------------------------------
# solve: exit codes


def test_resonant_input_exits_3(tmp_path, capsys):
    out = tmp_path / "res"
    assert run("solve", "--p", 1, "--q", 1, "--resolution", 16, "--outdir", out) == 3
    assert not (out / "record.json").exists()
    assert "resonant" in capsys.readouterr().err


def test_solve_factors_the_fine_operator_first(tmp_path, monkeypatch):
    """The benchmark's set-up window ends at the first factorization, so the
    coarse-to-fine levels must factor their operators after the fine one."""
    sizes = []
    cho_factor = fraclane.operator.cho_factor

    def recording_cho_factor(matrix, *args, **kwargs):
        sizes.append(matrix.shape[0])
        return cho_factor(matrix, *args, **kwargs)

    monkeypatch.setattr(fraclane.operator, "cho_factor", recording_cho_factor)
    assert run("solve", "--domain-kind", "disk", "--radius", 1, "--resolution", 32,
               "--p", 2, "--q", 2, "--s", 0.5, "--outdir", tmp_path / "disk") == 0
    assert sizes == [build_grid(Domain.disk(1.0), res).n_nodes for res in (32, 16)]


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
    assert "--trials must be at least 1, got 0" in err
    assert "max_iter must be at least 1, got 0" in err
    assert "mp_sweeps must be at least 1, got -5" in err
    assert "s must be a number, got '1/0'" in err


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
def test_energy_overflow_is_reported_as_such(tmp_path, capsys):
    # pq = 0.02 < 1 is well posed, but at p = 0.01 the density |A u|^101
    # overflows float64 in the first descent step: the verdict must name
    # the overflow, not a singular Jacobian, and no warning may escape
    out = tmp_path / "tiny_p"
    assert run("solve", "--resolution", 64, "--p", 0.01, "--q", 2, "--outdir", out) == 2
    record = json.loads((out / "record.json").read_text())
    assert record["regime"] == "sublinear" and record["converged"] is False
    assert record["verdict"] == ("nonconvergence: energy or defect overflowed float64 "
                                 "at descent step 1 (eps = 0.01, (p+1)/p = 101)")
    capsys.readouterr()


def test_failed_second_start_exits_2_with_first_pair_record(tmp_path, capsys):
    out = tmp_path / "second"
    code = run("solve", "--p", 0.5, "--q", 0.5, "--resolution", 32,
               "--second-init", "zero", "--outdir", out)
    assert code == 2
    record = json.loads((out / "record.json").read_text())
    assert set(record) == set(RECORD_FIELDS)
    # the first (bump) start converged and its record is complete
    assert record["converged"] is True
    assert record["min_u"] > 0 and record["min_v"] > 0
    assert record["rellich_residual"] is not None
    assert record["uniqueness_gap_u"] is None and record["uniqueness_gap_v"] is None
    assert record["verdict"].startswith("nonconvergence: second start 'zero'")
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
                             "--init", "random", "--second-init", "zero"),
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
                ["--domain-kind", "interval", "--resolution", 32]):
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


def test_phase_diagram_rejects_malformed_number_lists(capsys):
    assert run("phase-diagram", "--p-list", "a", "--q-list", "1") == 4
    assert run("phase-diagram", "--p-list", "1", "--q-list", "0.5,b") == 4
    assert run("phase-diagram", "--pairs", "0.5:x") == 4
    assert run("phase-diagram", "--pairs", "0.5:0.5:0.5") == 4
    capsys.readouterr()


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


def test_benchmark_hooks_name_existing_globals(monkeypatch):
    """perfbench traces the package by replacing these attributes; a refactor
    that drops one must fail here, not only in a traced benchmark run."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing into perfbench/
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, *_ in spans.LAYER_TARGETS if attr not in vars(owner)]
    assert missing == []
