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
from numbers import Rational

import numpy as np

from .errors import ConfigurationError
from .operator import FractionalOperator

REGIMES = ("sublinear", "resonant", "superlinear_subcritical", "critical", "supercritical")


def _as_exact(value):
    """Fraction when the value is exactly rational-typed, else None."""
    if isinstance(value, Rational):
        return Fraction(value)
    return None


@dataclass(frozen=True)
class ExponentPair:
    """Positive exponent pair (p, q) with the regime arithmetic.

    Values may be ints, Fractions, or floats; rational inputs are classified
    in exact arithmetic.
    """

    p: object
    q: object

    def __post_init__(self):
        if not (self.p > 0 and self.q > 0):
            raise ConfigurationError("exponents must be positive")

    @property
    def pf(self) -> float:
        return float(self.p)

    @property
    def qf(self) -> float:
        return float(self.q)

    @property
    def pq(self):
        return self.p * self.q

    def hyperbole_gap(self, n: int, s):
        """1/(p+1) + 1/(q+1) - (n-2s)/n, defined only for n > 2s.

        Positive below the critical curve, zero on it, negative above.
        Exact when p, q, s are rational.
        """
        pe, qe, se = _as_exact(self.p), _as_exact(self.q), _as_exact(s)
        if pe is not None and qe is not None and se is not None:
            if not n > 2 * se:
                raise ConfigurationError("hyperbole gap undefined for n <= 2s")
            return 1 / (pe + 1) + 1 / (qe + 1) - Fraction(n - 2 * se, n)
        s = float(s)
        if not n > 2 * s:
            raise ConfigurationError("hyperbole gap undefined for n <= 2s")
        return 1.0 / (self.pf + 1) + 1.0 / (self.qf + 1) - (n - 2 * s) / n

    def rhs_factor(self, n: int, s):
        """n/(q+1) + n/(p+1) - (n-2s): the interior-term coefficient in the
        boundary/interior integral identity; n times the hyperbole gap."""
        pe, qe, se = _as_exact(self.p), _as_exact(self.q), _as_exact(s)
        if pe is not None and qe is not None and se is not None:
            return n / (qe + 1) + n / (pe + 1) - (n - 2 * se)
        s = float(s)
        return n / (self.qf + 1) + n / (self.pf + 1) - (n - 2 * s)

    def regime(self, n: int, s) -> str:
        """One of: sublinear, resonant, superlinear_subcritical, critical,
        supercritical."""
        se = _as_exact(s)
        sf = float(s)
        if not 0 < sf < 1:
            raise ConfigurationError(f"fractional order must lie in (0,1), got {s}")
        if n < 1:
            raise ConfigurationError("dimension must be >= 1")
        pe, qe = _as_exact(self.p), _as_exact(self.q)
        exact = pe is not None and qe is not None
        pq = pe * qe if exact else self.pf * self.qf
        if pq < 1:
            return "sublinear"
        if pq == 1:
            return "resonant"
        two_s = 2 * se if se is not None else 2 * sf
        if n <= two_s:
            return "superlinear_subcritical"
        gap = self.hyperbole_gap(n, s)
        if gap > 0:
            return "superlinear_subcritical"
        if gap == 0:
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
    smoothing: float


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


def energy(op: FractionalOperator, u: np.ndarray, exps: ExponentPair,
           smoothing: float = 0.0, au: np.ndarray | None = None) -> EnergyReport:
    """Evaluate the (optionally eps-smoothed) functional at u.

    A caller that already holds the product A u passes it as `au` and saves
    the matvec."""
    p, q = exps.pf, exps.qf
    w = op.grid.weights
    if au is None:
        au = op.apply(u)
    raw_kin = float(np.sum(w * smoothed_density(au, smoothing, p)))
    kinetic = p / (p + 1.0) * raw_kin
    potential = float(np.sum(w * np.maximum(u, 0.0) ** (q + 1.0))) / (q + 1.0)
    e_norm = raw_kin ** (p / (p + 1.0)) if raw_kin > 0 else 0.0
    return EnergyReport(kinetic - potential, kinetic, potential, e_norm, smoothing)


def energy_gradient(op: FractionalOperator, u: np.ndarray, exps: ExponentPair,
                    smoothing: float = 0.0) -> np.ndarray:
    """Quadrature-weighted gradient: g = A (w sigma_eps(A u)) - w (u_+)^q,
    so that <g, phi> is the directional derivative of the smoothed energy."""
    p, q = exps.pf, exps.qf
    w = op.grid.weights
    au = op.apply(u)
    return op.apply(w * smoothed_power(au, smoothing, p)) - w * np.maximum(u, 0.0) ** q


def euler_lagrange_residual(op: FractionalOperator, u: np.ndarray, exps: ExponentPair,
                            smoothing: float = 0.0) -> float:
    """Sup-norm of the pointwise stationarity defect A sigma_eps(A u) - (u_+)^q,
    i.e. the gradient with the quadrature weight divided out.  This is the
    natural convergence scale for the descent solvers."""
    p, q = exps.pf, exps.qf
    au = op.apply(u)
    res = op.apply(smoothed_power(au, smoothing, p)) - np.maximum(u, 0.0) ** q
    return float(np.max(np.abs(res)))
