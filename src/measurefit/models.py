"""One-parameter density families used by the fitting layer.

Each family exposes a density, CDF, survival function, the first and
second parameter derivatives of the survival function and the parameter
score of the log density, all vectorized over the observation argument,
plus the score's parameter derivative, which for these families does not
depend on the observation, and the knots that resolve the density's peak.
Survival functions are analytic so improper tail components integrate
exactly, and parameter-domain violations raise instead of clamping (the
optimizers rely on hard domain walls).
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

    def survival_grad(self, c, x):
        """Derivative of the survival function in the parameter."""
        return self.density(c, x)

    def survival_hess(self, c, x):
        """Second derivative of the survival function in the parameter."""
        xs = np.asarray(x, dtype=float)
        return _maybe_float(x, (xs - c) / self.sigma1**2 * self.density(c, xs))

    def log_density_grad(self, c, x):
        self.check_param(c)
        return _maybe_float(x, (np.asarray(x, dtype=float) - c) / self.sigma1**2)

    def log_density_hess(self, c) -> float:
        """Derivative of the score in the parameter."""
        self.check_param(c)
        return -1.0 / self.sigma1**2

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


@dataclass(frozen=True)
class ExponentialRate:
    """Exponential family parametrized by its rate."""

    param_bounds = (0.0, math.inf)
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

    def survival_grad(self, c, x):
        self.check_param(c)
        xs = np.maximum(np.asarray(x, dtype=float), 0.0)
        return _maybe_float(x, -xs * np.exp(-c * xs))

    def survival_hess(self, c, x):
        self.check_param(c)
        xs = np.maximum(np.asarray(x, dtype=float), 0.0)
        return _maybe_float(x, xs * xs * np.exp(-c * xs))

    def log_density_grad(self, c, x):
        self.check_param(c)
        xs = np.asarray(x, dtype=float)
        if np.any(xs < 0):
            raise SupportError("exponential observations must be nonnegative")
        return _maybe_float(x, 1.0 / c - xs)

    def log_density_hess(self, c) -> float:
        self.check_param(c)
        return -1.0 / (c * c)

    def low_cutoff(self, c: float, mass: float) -> float:
        return 0.0

    def peak_knots(self, c: float) -> np.ndarray:
        """No knots: the density decays from the support edge, which edge knots resolve."""
        return _NO_KNOTS

    def default_bracket(self):
        return (1e-3, 1e3)

    def spec_string(self) -> str:
        return "exp"


@dataclass(frozen=True)
class ParetoTail:
    """Pareto family above a known threshold x0; heavier tails for smaller c."""

    x0: float = 1.0

    def __post_init__(self) -> None:
        if not (self.x0 > 0 and math.isfinite(self.x0)):
            raise ValueError("x0 must be positive and finite")

    param_bounds = (0.0, math.inf)

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

    def survival_grad(self, c, x):
        self.check_param(c)
        ratio = np.maximum(np.asarray(x, dtype=float), self.x0) / self.x0
        return _maybe_float(x, -np.log(ratio) * ratio ** (-c))

    def survival_hess(self, c, x):
        self.check_param(c)
        ratio = np.maximum(np.asarray(x, dtype=float), self.x0) / self.x0
        log_ratio = np.log(ratio)
        return _maybe_float(x, log_ratio * log_ratio * ratio ** (-c))

    def log_density_grad(self, c, x):
        self.check_param(c)
        xs = np.asarray(x, dtype=float)
        if np.any(xs < self.x0):
            raise SupportError(f"pareto observations must be >= x0 = {self.x0}")
        return _maybe_float(x, 1.0 / c - np.log(xs / self.x0))

    def log_density_hess(self, c) -> float:
        self.check_param(c)
        return -1.0 / (c * c)

    def low_cutoff(self, c: float, mass: float) -> float:
        return self.x0

    def peak_knots(self, c: float) -> np.ndarray:
        """No knots: the density decays from the support edge, which edge knots resolve."""
        return _NO_KNOTS

    def default_bracket(self):
        return (1e-3, 1e3)

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
