"""Discrete energy functional for the coupled power system.

The system's variational formulation is scalar: critical points of

    Phi(u) = p/(p+1) * int |A u|^((p+1)/p)  -  1/(q+1) * int (u_+)^(q+1)

give u, and the partner function is recovered from A v = (u_+)^q.  The
exponent (p+1)/p makes the first integrand non-smooth where A u = 0 when
p > 1, so both the density and its derivative come in an eps-smoothed
version used by the solvers (eps = 0 recovers the exact functional).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .operator import FractionalOperator, _check_order, _rational


@dataclass(frozen=True)
class ExponentPair:
    """Positive exponent pair (p, q) with the regime arithmetic.

    p and q are stored as exact rationals and every regime decision is made
    in exact arithmetic; `pf` and `qf` are the floats the solvers use.
    """

    p: Fraction
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", _rational(self.p, "p"))
        object.__setattr__(self, "q", _rational(self.q, "q"))
        if not (self.pf > 0 and self.qf > 0):  # an exponent the floats hold as 0 is not positive
            raise ConfigurationError("exponents must be positive")

    @cached_property  # written to the instance dict, which `frozen` leaves open
    def pf(self) -> float:
        return float(self.p)

    @cached_property
    def qf(self) -> float:
        return float(self.q)

    @property
    def pq(self) -> Fraction:
        return self.p * self.q

    def rhs_factor(self, n: int, s) -> Fraction:
        """n/(q+1) + n/(p+1) - (n-2s), exactly: the interior-term coefficient
        in the boundary/interior integral identity.  Positive below the
        critical curve 1/(p+1) + 1/(q+1) = (n-2s)/n, zero on it, negative
        above."""
        return n / (self.q + 1) + n / (self.p + 1) - (n - 2 * _rational(s, "s"))

    def regime(self, n: int, s) -> str:
        """One of: sublinear, resonant, superlinear_subcritical, critical,
        supercritical.  For n <= 2s there is no critical curve: the factor
        is then positive and every superlinear pair is subcritical."""
        _check_order(s)
        if n < 1:
            raise ConfigurationError("dimension must be >= 1")
        if self.pq < 1:
            return "sublinear"
        if self.pq == 1:
            return "resonant"
        factor = self.rhs_factor(n, s)
        if factor > 0:
            return "superlinear_subcritical"
        if factor == 0:
            return "critical"
        return "supercritical"


@dataclass(frozen=True)
class EnergyReport:
    """Value and parts of the functional at one grid function.

    value = kinetic - potential;
    kinetic = p/(p+1) * int rho_eps(A u);
    potential = 1/(q+1) * int (u_+)^(q+1);
    e_norm = (int rho_eps(A u))^(p/(p+1)), the discrete counterpart of the
    solution-space norm.
    """

    value: float
    kinetic: float
    potential: float
    e_norm: float


def smoothed_density(t: np.ndarray, eps: float, p: float) -> np.ndarray:
    """rho_eps(t) = (t^2+eps^2)^((p+1)/(2p)) - eps^((p+1)/p); rho_0 = |t|^((p+1)/p).

    The shift keeps rho_eps(0) = 0 so energies at different eps are
    comparable."""
    expo = (p + 1.0) / (2.0 * p)
    if eps == 0.0:
        return np.abs(t) ** (2.0 * expo)
    return (t * t + eps * eps) ** expo - eps ** (2.0 * expo)


def smoothed_power(t: np.ndarray, eps: float, p: float) -> np.ndarray:
    """sigma_eps(t) = (t^2+eps^2)^((1-p)/(2p)) t, the derivative of
    p/(p+1) * rho_eps; sigma_0(t) = |t|^(1/p-1) t."""
    expo = (1.0 - p) / (2.0 * p)
    if eps == 0.0:
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        nz = t != 0.0
        out[nz] = np.abs(t[nz]) ** (2.0 * expo) * t[nz]
        return out
    return (t * t + eps * eps) ** expo * t


def _energy_terms(op: FractionalOperator, u: np.ndarray, exps: ExponentPair,
                  smoothing: float, au: np.ndarray | None) -> tuple:
    """Row-wise (int rho_eps(A u), kinetic, potential) of one grid function
    or of a (k, N) stack.  The sums run along the last axis, so each row is
    summed exactly as a single function is."""
    p, q = exps.pf, exps.qf
    w = op.grid.weights
    if au is None:
        au = op.apply(u)
    raw_kin = np.sum(w * smoothed_density(au, smoothing, p), axis=-1)
    potential = np.sum(w * np.maximum(u, 0.0) ** (q + 1.0), axis=-1) / (q + 1.0)
    return raw_kin, p / (p + 1.0) * raw_kin, potential


def energy(op: FractionalOperator, u: np.ndarray, exps: ExponentPair,
           smoothing: float = 0.0, au: np.ndarray | None = None) -> EnergyReport:
    """Evaluate the (optionally eps-smoothed) functional at u.

    A caller that already holds the product A u passes it as `au` and saves
    the matvec."""
    raw_kin, kinetic, potential = map(float, _energy_terms(op, u, exps, smoothing, au))
    e_norm = raw_kin ** (exps.pf / (exps.pf + 1.0)) if raw_kin > 0 else 0.0
    return EnergyReport(kinetic - potential, kinetic, potential, e_norm)


def energy_value(op: FractionalOperator, u: np.ndarray, exps: ExponentPair,
                 smoothing: float = 0.0, au: np.ndarray | None = None):
    """`energy(...).value` without the report: a float for one grid function,
    k values for a (k, N) stack (with `au` a stack too)."""
    _, kinetic, potential = _energy_terms(op, u, exps, smoothing, au)
    return kinetic - potential


def energy_gradient(op: FractionalOperator, u: np.ndarray, exps: ExponentPair,
                    smoothing: float = 0.0, au: np.ndarray | None = None) -> np.ndarray:
    """Quadrature-weighted gradient: g = m (A (w sigma_eps(A u)) - w (u_+)^q),
    so that <g, phi> is the directional derivative of the smoothed energy.

    w is the cell volume and m the grid's multiplicity (1, or the orbit
    sizes on the symmetric subspace), so that the grid's weights are w m; m
    is a power of 2, so w m / m is w exactly.  A caller holding A u passes
    it as `au`."""
    p, q = exps.pf, exps.qf
    wm, m = op.grid.weights, op.grid.multiplicity
    if au is None:
        au = op.apply(u)
    return m * op.apply(wm / m * smoothed_power(au, smoothing, p)) - wm * np.maximum(u, 0.0) ** q


def euler_lagrange_residual(op: FractionalOperator, u: np.ndarray, exps: ExponentPair,
                            smoothing: float = 0.0) -> float:
    """Sup-norm of the pointwise stationarity defect A sigma_eps(A u) - (u_+)^q,
    i.e. the gradient with the quadrature weight divided out (the mountain
    pass logs the same max|g / weights| from the gradient it already holds)."""
    p, q = exps.pf, exps.qf
    au = op.apply(u)
    res = op.apply(smoothed_power(au, smoothing, p)) - np.maximum(u, 0.0) ** q
    return float(np.max(np.abs(res)))
