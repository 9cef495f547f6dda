"""The sublinear solution against its order bracket, and acceptance under a
change of scale.

`oracles.sublinear_bracket` squeezes the unique positive fixed point of the
sublinear map between two monotone iterations, independently of the
package's solver pipelines; it is the reference of every test here.

The discrete system is covariant under dilation: on L*Omega at the same
resolution every kernel cell mass scales by exactly L^(-2s), so the
solution is u_L = L^a u with a = 2s(1+p)/(1-pq).  Acceptance today compares
absolute residuals with `residual_tol`, so it accepts pairs that are far
from the solution when the solution is tiny and misses the tolerance when
it is large.  The tests of that defect are strict expected failures until
acceptance is made relative to the scale of the equations.
"""

import json

import numpy as np
import pytest

import oracles
from fraclane import Domain, ExponentPair, SolverConfig, assemble, build_grid, solve_system
from fraclane.cli import main

SUBLINEAR = [(0.5, 0.5), (0.7, 0.7), (0.9, 0.9), (0.95, 0.95), (0.5, 1.9)]
REL_TOL = 1e-6  # the accurate pairs of the scan agree with the bracket to 1.3e-9 or better

SCALE_BLIND = pytest.mark.xfail(strict=True, reason="acceptance compares absolute residuals "
                                "with residual_tol, whatever the solution's scale")


def _op(lo=-1.0, hi=1.0, resolution=128, s=0.5):
    return assemble(build_grid(Domain.interval(lo, hi), resolution), s)


def _distance_to(lo, hi, u):
    """Sup-norm distance of u from the order interval [lo, hi], relative to sup hi."""
    return float(np.max(np.maximum(np.maximum(lo - u, u - hi), 0.0))) / float(np.max(hi))


@pytest.fixture(scope="module")
def op128():
    return _op()


@pytest.mark.parametrize("p, q", SUBLINEAR)
def test_the_sublinear_solution_lies_in_its_order_bracket(op128, p, q):
    lo, hi, _ = oracles.sublinear_bracket(op128, p, q)
    assert np.all(lo > 0.0)
    assert float(np.max(hi - lo)) <= 1e-13 * float(np.max(hi))
    pair = solve_system(op128, ExponentPair(p, q), SolverConfig())
    assert _distance_to(lo, hi, pair.u) <= REL_TOL
    # v = A^-1 u^q is monotone in u, so the bracket carries over
    v_lo, v_hi = (op128.solve(w ** q) for w in (lo, hi))
    assert _distance_to(v_lo, v_hi, pair.v) <= REL_TOL


@pytest.mark.parametrize("p, q", SUBLINEAR)
def test_the_bracket_contracts_by_at_most_pq_per_step(op128, p, q):
    # Thompson's metric contracts by pq; at a distance d the rounding of the
    # iterates moves a step ratio by about 1e-16/d
    _, _, distances = oracles.sublinear_bracket(op128, p, q)
    ratios = [b / a for a, b in zip(distances, distances[1:]) if a > 1e-9]
    assert len(ratios) >= 5
    assert max(ratios) <= p * q + 1e-6


@SCALE_BLIND
def test_cli_refuses_or_solves_a_tiny_sublinear_pair(tmp_path):
    # on (0, 0.2) the solution's sup is 2.0e-32 (0.1^30 of the one on
    # (-1, 1)); the pipeline stops at absolute residuals of 1e-12 with sup u
    # 1.8e-13 and exits 0 with an existence verdict
    out = tmp_path / "tiny"
    rc = main(["solve", "--domain-kind", "interval", "--endpoints", "0", "0.2",
               "--resolution", "128", "--p", "0.5", "--q", "1.9", "--s", "1/2",
               "--second-init", "random", "--outdir", str(out)])
    lo, hi, _ = oracles.sublinear_bracket(_op(0.0, 0.2), 0.5, 1.9)
    assert 1e-33 < float(np.max(hi)) < 1e-31
    if rc == 0:  # an accepted pair must be the solution
        record = json.loads((out / "record.json").read_text())
        u = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)[:, 1]
        assert _distance_to(lo, hi, u) <= REL_TOL, record["verdict"]
    else:
        assert rc == 2


@SCALE_BLIND
def test_cli_accepts_a_large_pair_on_a_rectangle(tmp_path):
    # sup v is 3.5e7, so Newton stalls at an absolute residual of 3e-7 (1e-14
    # relative): every attempt misses residual_tol, and the solve exits 2;
    # with --residual-tol 1e-5 the same run is accepted
    out = tmp_path / "large"
    assert main(["solve", "--domain-kind", "rectangle", "--sides", "2", "1", "--resolution", "12",
                 "--s", "3/4", "--p", "3/10", "--q", "5", "--outdir", str(out)]) == 0


def _dilation_cases():
    # L = 1 compares the solver with the bracket; a superlinear pair is its own reference there
    for p, q in ((0.5, 1.9), (0.9, 0.9), (2.0, 2.0)):
        for scale in (0.1, 1.0, 10.0) if p * q < 1 else (0.1, 10.0):
            off_scale = p * q < 1 and scale != 1.0
            yield pytest.param(p, q, scale, marks=[SCALE_BLIND] if off_scale else [],
                               id=f"{p}-{q}-L{scale}")


@pytest.mark.parametrize("p, q, scale", _dilation_cases())
def test_a_dilated_domain_gives_the_dilated_solution(op128, p, q, scale):
    # L^(-a) u_L against the solution on (-1, 1): the bracket's midpoint in
    # the sublinear regime, the solved pair otherwise
    s = 0.5
    a = 2 * s * (1 + p) / (1 - p * q)
    if p * q < 1:
        lo, hi, _ = oracles.sublinear_bracket(op128, p, q)
        ref = 0.5 * (lo + hi)
    else:
        ref = solve_system(op128, ExponentPair(p, q), SolverConfig()).u
    u = solve_system(_op(-scale, scale, s=s), ExponentPair(p, q), SolverConfig()).u
    error = float(np.max(np.abs(scale ** (-a) * u - ref))) / float(np.max(np.abs(ref)))
    assert error <= REL_TOL
