"""One-parameter density families used by the fitting layer.

Each family exposes a density, CDF, survival function, the survival function
with its first and second parameter derivatives (``survival_terms``) and the
parameter score of the log density, all vectorized over the observation
argument, plus the score's parameter derivative, which for these families
does not depend on the observation, and the knots that resolve the density's
peak. Survival functions are analytic so improper tail components integrate
exactly, and parameter-domain violations raise instead of clamping (the
optimizers rely on hard domain walls).

All three are one-parameter exponential families, log f_c(x) = c T(x) +
h(x) - A(c), so everything about x in the density can be computed once.
Each family's node form splits the density at a point x into a c-free
statistic t(x) and factor e^h(x) (0 below the support), from
``node_form``, and the rest, a cheap function of c and t: its log from
``node_log_density`` and the score from ``node_score``; the score's slope
is ``log_density_hess``. A compiled rule keeps t at its Gauss nodes and
folds e^h into their weights, so a density call there is one ``exp``; as
score' does not depend on x, the rule adds it once per integral, not per node:

- Pareto: t = log(x / x0), e^h = 1 / x, log c - c t, score 1 / c - t;
- exponential: t = x, e^h = 1, log c - c t, score 1 / c - t. A Pareto law
  above x0 is the exponential law of t = log(x / x0), so the two share
  ``_RateFamily``, and the Hill estimator ``tailstudy.imputation_index`` is
  the exponential-rate MLE in t;
- normal: t = x, e^h = 1 / (sigma1 sqrt(2 pi)), -(t - c)^2 / (2 sigma1^2),
  score (t - c) / sigma1^2. The centred square does not cancel the way
  the natural c x / sigma1^2 - c^2 / (2 sigma1^2) does at large |c|.

The scalar ``density``, ``log_density_grad`` and ``log_density_hess``
stay the oracle that adaptive integration uses.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
from scipy import special

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_PEAK_OFFSETS = np.array([-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0])
_NO_KNOTS = np.empty(0)


class ParameterDomainError(ValueError):
    """Parameter lies outside the family's domain."""


class SupportError(ValueError):
    """Observation lies outside the family's support."""


def _maybe_float(x, value):
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(value)
    return value


@dataclass(frozen=True)
class NormalLocation:
    """Gaussian location family with known standard deviation."""

    sigma1: float = 1.0

    def __post_init__(self) -> None:
        if not (self.sigma1 > 0 and math.isfinite(self.sigma1)):
            raise ValueError("sigma1 must be positive and finite")

    param_bounds = (-math.inf, math.inf)
    support_lower = -math.inf

    def check_param(self, c: float) -> None:
        if not math.isfinite(c):
            raise ParameterDomainError(f"normal location parameter must be finite, got {c!r}")

    def density(self, c, x):
        self.check_param(c)
        z = (np.asarray(x, dtype=float) - c) / self.sigma1
        return _maybe_float(x, np.exp(-0.5 * z * z) / (self.sigma1 * _SQRT_2PI))

    def cdf(self, c, x):
        self.check_param(c)
        return _maybe_float(x, special.ndtr((np.asarray(x, dtype=float) - c) / self.sigma1))

    def survival(self, c, x):
        self.check_param(c)
        return _maybe_float(x, special.ndtr((c - np.asarray(x, dtype=float)) / self.sigma1))

    def survival_terms(self, c, x):
        """The survival S at x with its parameter derivatives S' = f and S'' = (x - c) f / s^2.

        f is the density at x and s is sigma1; one density call serves both.
        """
        xs = np.asarray(x, dtype=float)
        dens = self.density(c, xs)
        return self.survival(c, xs), dens, (xs - c) / self.sigma1**2 * dens

    def log_density_grad(self, c, x):
        self.check_param(c)
        return _maybe_float(x, (np.asarray(x, dtype=float) - c) / self.sigma1**2)

    def log_density_hess(self, c) -> float:
        """Derivative of the score in the parameter."""
        self.check_param(c)
        return -1.0 / self.sigma1**2

    def node_form(self, x):
        """The c-free statistic t = x and density factor e^h = 1 / (sigma1 sqrt(2 pi)) at x."""
        xs = np.asarray(x, dtype=float)
        return xs, np.full(xs.shape, 1.0 / (self.sigma1 * _SQRT_2PI))

    def node_log_density(self, c, t):
        """log f_c(x) - h(x) from t = x, centred."""
        z = (t - c) / self.sigma1
        return -0.5 * z * z

    def node_score(self, c, t):
        """The score at x from t = x."""
        return (t - c) / self.sigma1**2

    def low_cutoff(self, c: float, mass: float) -> float:
        """Point below which the family keeps less than ``mass`` probability."""
        return c + self.sigma1 * special.ndtri(mass)

    def peak_knots(self, c: float) -> np.ndarray:
        """Points that resolve the density's peak at c: c and c +- 1, 2, 4, 8 sigma1."""
        return c + self.sigma1 * _PEAK_OFFSETS

    def default_bracket(self):
        return (-1e3, 1e3)

    def spec_string(self) -> str:
        return f"normal(sigma1={self.sigma1:g})"


class _RateFamily:
    """The exponential and Pareto families' shared density c e^(-c t) in the statistic t.

    They differ in t(x) and in the scalar oracle methods, kept per class. The
    survival is S = e^(-c t), so its parameter derivatives are S' = -t S and
    S'' = t^2 S, with t from ``node_form`` (0 below the support, where S = 1)
    and S from the class's own ``survival``.
    """

    param_bounds = (0.0, math.inf)

    def survival_terms(self, c, x):
        """The survival S at x with its parameter derivatives S' = -t S and S'' = t^2 S."""
        xs = np.asarray(x, dtype=float)
        surv, t = self.survival(c, xs), self.node_form(xs)[0]
        return surv, -t * surv, t * t * surv

    def log_density_hess(self, c) -> float:
        """Derivative of the score in the parameter."""
        self.check_param(c)
        return -1.0 / (c * c)

    def node_log_density(self, c, t):
        """log f_c(x) - h(x) from the node statistic t."""
        return math.log(c) - c * t

    def node_score(self, c, t):
        """The score at x from the node statistic t."""
        return 1.0 / c - t

    def peak_knots(self, c: float) -> np.ndarray:
        """No knots: the density decays from the support edge, which edge knots resolve."""
        return _NO_KNOTS

    def default_bracket(self):
        return (1e-3, 1e3)


@dataclass(frozen=True)
class ExponentialRate(_RateFamily):
    """Exponential family parametrized by its rate."""

    support_lower = 0.0

    def check_param(self, c: float) -> None:
        if not (c > 0 and math.isfinite(c)):
            raise ParameterDomainError(f"exponential rate must be positive, got {c!r}")

    def density(self, c, x):
        self.check_param(c)
        xs = np.asarray(x, dtype=float)
        out = np.where(xs >= 0, c * np.exp(-c * np.maximum(xs, 0.0)), 0.0)
        return _maybe_float(x, out)

    def cdf(self, c, x):
        self.check_param(c)
        xs = np.asarray(x, dtype=float)
        return _maybe_float(x, np.where(xs >= 0, -np.expm1(-c * np.maximum(xs, 0.0)), 0.0))

    def survival(self, c, x):
        self.check_param(c)
        xs = np.asarray(x, dtype=float)
        return _maybe_float(x, np.where(xs >= 0, np.exp(-c * np.maximum(xs, 0.0)), 1.0))

    def log_density_grad(self, c, x):
        self.check_param(c)
        xs = np.asarray(x, dtype=float)
        if np.any(xs < 0):
            raise SupportError("exponential observations must be nonnegative")
        return _maybe_float(x, 1.0 / c - xs)

    def node_form(self, x):
        """The c-free statistic t = x (0 below the support) and factor e^h = 1 (0 below) at x."""
        xs = np.asarray(x, dtype=float)
        return np.maximum(xs, 0.0), (xs >= 0).astype(float)

    def spec_string(self) -> str:
        return "exp"


@dataclass(frozen=True)
class ParetoTail(_RateFamily):
    """Pareto family above a known threshold x0; heavier tails for smaller c."""

    x0: float = 1.0

    def __post_init__(self) -> None:
        if not (self.x0 > 0 and math.isfinite(self.x0)):
            raise ValueError("x0 must be positive and finite")

    @property
    def support_lower(self) -> float:
        return self.x0

    def check_param(self, c: float) -> None:
        if not (c > 0 and math.isfinite(c)):
            raise ParameterDomainError(f"pareto parameter must be positive, got {c!r}")

    def density(self, c, x):
        self.check_param(c)
        xs = np.asarray(x, dtype=float)
        safe = np.maximum(xs, self.x0)
        out = np.where(xs >= self.x0, (c / self.x0) * (safe / self.x0) ** (-c - 1.0), 0.0)
        return _maybe_float(x, out)

    def cdf(self, c, x):
        self.check_param(c)
        xs = np.asarray(x, dtype=float)
        safe = np.maximum(xs, self.x0)
        return _maybe_float(x, np.where(xs >= self.x0, 1.0 - (safe / self.x0) ** (-c), 0.0))

    def survival(self, c, x):
        self.check_param(c)
        xs = np.asarray(x, dtype=float)
        safe = np.maximum(xs, self.x0)
        return _maybe_float(x, np.where(xs >= self.x0, (safe / self.x0) ** (-c), 1.0))

    def log_density_grad(self, c, x):
        self.check_param(c)
        xs = np.asarray(x, dtype=float)
        if np.any(xs < self.x0):
            raise SupportError(f"pareto observations must be >= x0 = {self.x0}")
        return _maybe_float(x, 1.0 / c - np.log(xs / self.x0))

    def node_form(self, x):
        """The c-free statistic t = log(x / x0) (0 below x0) and factor e^h = 1 / x (0 below) at x."""
        xs = np.asarray(x, dtype=float)
        inside = xs >= self.x0
        t = np.where(inside, xs, self.x0)
        e_h = np.divide(1.0, t, out=np.zeros(t.shape), where=inside)
        t /= self.x0
        return np.log(t, out=t), e_h

    def spec_string(self) -> str:
        return f"pareto(x0={self.x0:g})"


Family = NormalLocation | ExponentialRate | ParetoTail

_SPEC_RE = re.compile(
    r"^\s*(normal|exp|pareto)\s*(?:\(\s*(\w+)\s*=\s*([^)\s]+)\s*\))?\s*$", re.IGNORECASE
)


def parse_family(text: str) -> Family:
    """Build a family from its specification string.

    Accepted forms: ``normal(sigma1=...)``, ``exp``, ``pareto(x0=...)``.
    """
    m = _SPEC_RE.match(text)
    if m is None:
        raise ValueError(f"unrecognized family specification: {text!r}")
    name = m.group(1).lower()
    key, raw = m.group(2), m.group(3)
    if name == "exp":
        if key is not None:
            raise ValueError("exp takes no hyperparameters")
        return ExponentialRate()
    if key is None or raw is None:
        raise ValueError(f"{name} requires a hyperparameter, e.g. {name}(...)")
    value = float(raw)
    if name == "normal":
        if key.lower() != "sigma1":
            raise ValueError(f"unknown normal hyperparameter {key!r}")
        return NormalLocation(sigma1=value)
    if key.lower() != "x0":
        raise ValueError(f"unknown pareto hyperparameter {key!r}")
    return ParetoTail(x0=value)
