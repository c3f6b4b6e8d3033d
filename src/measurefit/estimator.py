"""Generalized maximum likelihood for measure-valued samples.

The per-datapoint loss is W(c) = -log I(c), I(c) = integral(f_c dmu); its
parameter gradient Z(c) = -I'(c) / I(c) drives both the estimating equation
(sum of Z = 0) and the sandwich variance. Z is always the exact derivative
of the same integral W is computed from.

A fit evaluates the summed loss and gradient along one of two paths, chosen
once per sample:

- closed-form profile: a homogeneous sample (all atoms, all unrestricted
  gamma kernels under the exponential family, or all normal kernels under
  the normal-location family) is evaluated by vectorized numpy
  expressions for W and Z, with no quadrature. A ``KernelSample`` hands
  the profile its columns; any other sequence is scanned once per
  evaluator;
- compiled panel rule: any other sample is compiled on its first
  evaluation into a ``PanelRule``, which holds its quadrature panels for
  the rest of the fit and integrates every measure in one batched density
  call per c, checking each component against the adaptive tolerance at
  every c and refining it where the check fails. I'(c) is read off the
  panels accepted for I(c), so Z needs no further integrals.

``z_value`` is the one-measure case of the same evaluator; ``integrate``
stays the per-measure adaptive oracle behind ``w_value``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Sequence

import numpy as np
from scipy import optimize

from .measure import (
    DiracAtom,
    GammaKernel,
    KernelSample,
    NormalKernel,
    PanelRule,
    RandomMeasure,
    WeightedDensity,
    integrate,
)
from .models import ExponentialRate, NormalLocation, ParameterDomainError
from .quadrature import DEFAULT_QUAD, QuadratureSpec

Sample = Sequence[RandomMeasure]

_GOLDEN = 0.381966011250105097


class FitError(RuntimeError):
    """Optimization or root finding could not produce an estimate."""


class SingularSlopeError(RuntimeError):
    """The slope of the mean estimating function is numerically singular."""


def failure_reason(exc: BaseException) -> str:
    """The key a study counts a failed fit under: ``"<ExceptionType>: <message>"``."""
    return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class OptimizerConfig:
    """Bracket and tolerances for the one-dimensional solvers.

    The sandwich slope is a central difference with relative step
    sqrt(``fd_step_rel``), scaled by max(|c|, 1) so parameters spanning
    orders of magnitude behave.
    """

    bracket: tuple[float, float] | None = None
    param_tol: float = 1e-10
    objective_tol: float = 1e-12
    max_iter: int = 500
    fd_step_rel: float = 1e-6

    def __post_init__(self) -> None:
        if self.param_tol <= 0 or self.objective_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.fd_step_rel <= 0:
            raise ValueError("fd_step_rel must be positive")
        if self.bracket is not None and not self.bracket[0] < self.bracket[1]:
            raise ValueError("bracket must be an increasing pair")


DEFAULT_CONFIG = OptimizerConfig()


@dataclass(frozen=True)
class FitResult:
    estimate: float
    n: int
    method: str
    converged: bool
    iterations: int
    objective: float
    m_hat: float | None = None
    j_hat: float | None = None
    v_hat: float | None = None
    stderr: float | None = None


# ---------------------------------------------------------------------------
# per-datapoint loss and gradient


def w_value(family, c: float, measure: RandomMeasure,
            quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Negative log of the generalized density; +inf when the integral is 0."""
    value = integrate(family, c, measure, quad)
    if value <= 0.0:
        return math.inf
    return -math.log(value)


def _fd_step(family, c: float, rel_step: float) -> float:
    h = rel_step * max(abs(c), 1.0)
    lo, hi = family.param_bounds
    if math.isfinite(lo):
        h = min(h, 0.5 * (c - lo))
    if math.isfinite(hi):
        h = min(h, 0.5 * (hi - c))
    if h <= 0:
        raise ParameterDomainError(f"cannot differentiate at the domain boundary (c = {c})")
    return h


def z_value(family, c: float, measure: RandomMeasure,
            quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Gradient of w_value in the parameter, from a one-measure sample evaluator."""
    return float(_SampleEvaluator(family, [measure], quad).z_values(c)[0])


def per_point_loglik(family, c: float, sample: Sample,
                     quad: QuadratureSpec = DEFAULT_QUAD) -> np.ndarray:
    """Log integral term per datapoint (-inf where the integral vanishes)."""
    evaluator = _SampleEvaluator(family, _measures(sample), quad)
    return -evaluator.w_values(c)


def generalized_loglik(family, c: float, sample: Sample,
                       quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Sum of per-datapoint log integrals.

    Returns -inf when any term is -inf; the offending datapoint count is
    ``np.isneginf(per_point_loglik(...)).sum()``.
    """
    return float(per_point_loglik(family, c, sample, quad).sum())


# ---------------------------------------------------------------------------
# vectorized evaluation of a sample


def _measures(sample: Sample) -> Sample:
    """The sample as an evaluator takes it: a KernelSample as is, anything else as a list."""
    return sample if isinstance(sample, KernelSample) else list(sample)


class _SampleEvaluator:
    """Sum-of-W / sum-of-Z oracles: a closed-form profile or a compiled panel rule.

    The profile of a ``KernelSample`` is read off its columns, without
    touching its measures; a list is scanned once.
    """

    def __init__(self, family, measures: Sample, quad: QuadratureSpec) -> None:
        self.family = family
        self.measures = measures
        self.quad = quad
        self.n = len(measures)
        self._profile = self._build_profile()
        self._rule: PanelRule | None = None  # compiled on the first generic evaluation

    def _build_profile(self):
        """Closed-form profile arrays of a homogeneous sample; None when it has none."""
        family, measures = self.family, self.measures
        if isinstance(measures, KernelSample):
            return self._column_profile(measures)
        if all(len(m.components) == 1 and isinstance(m.components[0], DiracAtom)
               for m in measures):
            return ("dirac", np.array([m.components[0].location for m in measures],
                                      dtype=float))
        if isinstance(family, ExponentialRate):
            kind, kernel_type, fields = "exp_gamma", GammaKernel, ("shape", "rate", "shift")
        elif isinstance(family, NormalLocation):
            kind, kernel_type, fields = "normal_normal", NormalKernel, ("mean", "sd")
        else:
            return None
        kernels, log_w = [], []
        for m in measures:
            comp = m.components[0]
            if not (len(m.components) == 1 and isinstance(comp, WeightedDensity)
                    and comp.lower is None and comp.weight > 0
                    and isinstance(comp.kernel, kernel_type)):
                return None
            kernels.append(comp.kernel)
            log_w.append(math.log(comp.weight))
        columns = [np.array(list(map(attrgetter(f), kernels)), dtype=float) for f in fields]
        if kind == "exp_gamma" and (columns[2] < 0).any():
            return None  # the exp-gamma closed form needs shift >= 0
        return (kind, (*columns, np.array(log_w)))

    def _column_profile(self, sample: KernelSample):
        """The profile ``_build_profile`` would scan out of the sample, from its columns."""
        family, cols = self.family, sample.columns
        if sample.kind == "dirac":
            return ("dirac", cols["location"])
        log_w = np.zeros(len(sample))  # unit weights
        if (sample.kind == "gamma" and isinstance(family, ExponentialRate)
                and (cols["shift"] >= 0).all()):
            return ("exp_gamma", (cols["shape"], cols["rate"], cols["shift"], log_w))
        if sample.kind == "normal" and isinstance(family, NormalLocation):
            return ("normal_normal", (cols["mean"], cols["sd"], log_w))
        return None

    def _compiled(self) -> PanelRule:
        if self._rule is None:
            self._rule = PanelRule(self.family, self.measures, self.quad)
        return self._rule

    def w_values(self, c: float) -> np.ndarray:
        self.family.check_param(c)
        if self._profile is None:
            with np.errstate(divide="ignore", invalid="ignore"):
                return -np.log(np.maximum(self._compiled().integrals(c), 0.0))
        kind, data = self._profile
        if kind == "dirac":
            with np.errstate(divide="ignore"):
                return -np.log(self.family.density(c, data))
        if kind == "exp_gamma":
            shapes, rates, shifts, log_w = data
            return -log_w - math.log(c) + c * shifts + shapes * np.log1p(c / rates)
        means, sds, log_w = data
        s2 = self.family.sigma1**2 + sds**2
        return -log_w + 0.5 * np.log(2.0 * math.pi * s2) + (means - c) ** 2 / (2.0 * s2)

    def z_values(self, c: float) -> np.ndarray:
        self.family.check_param(c)
        if self._profile is None:
            values, grads = self._compiled().integrals_with_grad(c)
            if not (values > 0).all():
                raise FitError(f"loss is not finite at c = {c}; gradient undefined")
            return -grads / values
        kind, data = self._profile
        if kind == "dirac":
            return -np.asarray(self.family.log_density_grad(c, data))
        if kind == "exp_gamma":
            shapes, rates, shifts, _ = data
            return shifts + shapes / (rates + c) - 1.0 / c
        means, sds, _ = data
        return (c - means) / (self.family.sigma1**2 + sds**2)

    def sum_w(self, c: float) -> float:
        return float(self.w_values(c).sum())

    def sum_z(self, c: float) -> float:
        return float(self.z_values(c).sum())


# ---------------------------------------------------------------------------
# one-dimensional solvers


def _brent_minimize(f, lo: float, hi: float, rel_tol: float, abs_tol: float,
                    objective_tol: float, max_iter: int):
    """Bounded Brent minimization tolerant of +inf objective values.

    Terminates on the parameter interval; as a secondary rule, five
    consecutive accepted steps that each improve the objective by less
    than ``objective_tol`` (absolute) also count as converged.
    """
    x = lo + _GOLDEN * (hi - lo)
    fx = f(x)
    w_pt, f_w = x, fx
    v_pt, f_v = x, fx
    d = e = 0.0
    iterations = 0
    converged = False
    flat_steps = 0
    for iterations in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        tol1 = rel_tol * abs(x) + abs_tol
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (hi - lo) or flat_steps >= 5:
            converged = True
            break
        take_golden = True
        if abs(e) > tol1 and all(map(math.isfinite, (fx, f_w, f_v))):
            r = (x - w_pt) * (fx - f_v)
            q = (x - v_pt) * (fx - f_w)
            p = (x - v_pt) * q - (x - w_pt) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (lo - x) < p < q * (hi - x):
                d = p / q
                u = x + d
                if (u - lo) < tol2 or (hi - u) < tol2:
                    d = tol1 if x < mid else -tol1
                take_golden = False
        if take_golden:
            e = (hi - x) if x < mid else (lo - x)
            d = _GOLDEN * e
        u = x + d if abs(d) >= tol1 else x + (tol1 if d > 0 else -tol1)
        f_u = f(u)
        if f_u <= fx:
            if math.isfinite(f_u) and math.isfinite(fx) and fx - f_u < objective_tol:
                flat_steps += 1
            else:
                flat_steps = 0
            if u >= x:
                lo = x
            else:
                hi = x
            v_pt, f_v = w_pt, f_w
            w_pt, f_w = x, fx
            x, fx = u, f_u
        else:
            if u < x:
                lo = u
            else:
                hi = u
            if f_u <= f_w or w_pt == x:
                v_pt, f_v = w_pt, f_w
                w_pt, f_w = u, f_u
            elif f_u <= f_v or v_pt == x or v_pt == w_pt:
                v_pt, f_v = u, f_u
    return x, fx, iterations, converged


def _clip_bracket(family, bracket: tuple[float, float]) -> tuple[float, float]:
    lo, hi = family.param_bounds
    a = max(bracket[0], lo + 1e-12 * max(1.0, abs(lo))) if math.isfinite(lo) else bracket[0]
    b = min(bracket[1], hi) if math.isfinite(hi) else bracket[1]
    if not a < b:
        raise FitError(f"bracket {bracket} does not intersect the parameter domain")
    return a, b


def _scan_bracket(f, lo: float, hi: float, positive_domain: bool, points: int = 33):
    """Coarse sweep locating a finite sub-bracket around the best objective.

    The loss can underflow to +inf over most of a wide bracket (deep tails),
    where golden steps have nothing to compare; the sweep pins the search to
    the finite valley first.
    """
    if positive_domain and lo > 0:
        grid = np.geomspace(lo, hi, points)
    else:
        grid = np.linspace(lo, hi, points)
    values = np.array([f(g) for g in grid])
    finite = np.isfinite(values)
    if not finite.any():
        raise FitError("objective is infinite over the search bracket")
    best = int(np.nanargmin(np.where(finite, values, np.inf)))
    return grid[max(best - 1, 0)], grid[min(best + 1, points - 1)], points


def _expand_to_sign_change(g, a: float, b: float, family, valley,
                           max_expand: int = 60):
    """Geometric bracket growth toward the domain boundary until g changes sign.

    Where g is undefined (FitError) or not finite at either starting end, as
    when the loss underflows there, the growth starts instead from
    ``valley(a, b)``, a sub-bracket around the finite valley of the loss,
    narrowed again until g is finite at both of its ends.
    """
    dom_lo, dom_hi = family.param_bounds
    positive = dom_lo >= 0.0
    for _ in range(max_expand):
        try:
            g_a, g_b = g(a), g(b)
        except FitError:
            g_a = g_b = math.nan
        if math.isfinite(g_a) and math.isfinite(g_b):
            break
        a, b = valley(a, b)
    else:
        raise FitError(f"estimating equation is not finite at both ends of ({a:g}, {b:g})")
    for _ in range(max_expand):
        if math.isfinite(g_a) and math.isfinite(g_b) and g_a * g_b <= 0:
            return a, b
        if positive:
            a = max(a / 8.0, 1e-300)
            b = min(b * 8.0, 1e300)
        else:
            span = b - a
            a -= span
            b += span
        if math.isfinite(dom_lo):
            a = max(a, dom_lo + 1e-300)
        if math.isfinite(dom_hi):
            b = min(b, dom_hi)
        g_a, g_b = g(a), g(b)
    raise FitError(
        f"estimating equation has no sign change on ({a:g}, {b:g}); "
        "no root bracketed within the parameter domain"
    )


def fit(family, sample: Sample, config: OptimizerConfig = DEFAULT_CONFIG,
        quad: QuadratureSpec = DEFAULT_QUAD, method: str = "minimize",
        compute_sandwich: bool = True) -> FitResult:
    """Estimate the parameter from a sample of random measures.

    ``method="minimize"`` runs bounded Brent minimization of the summed
    loss; ``method="zroot"`` solves the estimating equation by bracketed
    root finding (expanding the bracket geometrically when needed). The two
    agree at interior optima.
    """
    measures = _measures(sample)
    if not measures:
        raise ValueError("sample must contain at least one measure")
    evaluator = _SampleEvaluator(family, measures, quad)
    bracket = _clip_bracket(family, config.bracket or family.default_bracket())
    positive = family.param_bounds[0] >= 0

    if method == "minimize":
        lo, hi, scan_evals = _scan_bracket(evaluator.sum_w, bracket[0], bracket[1], positive)
        estimate, objective, iterations, converged = _brent_minimize(
            evaluator.sum_w, lo, hi,
            rel_tol=config.param_tol, abs_tol=config.param_tol * 1e-2,
            objective_tol=config.objective_tol, max_iter=config.max_iter,
        )
        iterations += scan_evals
        if not math.isfinite(objective):
            raise FitError("objective is infinite over the search bracket")
    elif method == "zroot":
        valley = lambda lo, hi: _scan_bracket(evaluator.sum_w, lo, hi, positive)[:2]
        a, b = _expand_to_sign_change(evaluator.sum_z, bracket[0], bracket[1], family,
                                      valley)
        estimate, results = optimize.brentq(
            evaluator.sum_z, a, b, xtol=config.param_tol, rtol=4 * np.finfo(float).eps,
            maxiter=config.max_iter, full_output=True,
        )
        converged = bool(results.converged)
        iterations = int(results.iterations)
        objective = evaluator.sum_w(float(estimate))
    else:
        raise ValueError(f"unknown fit method {method!r}")

    if not converged:
        raise FitError(f"{method} did not converge within {config.max_iter} iterations")

    result = FitResult(
        estimate=float(estimate), n=evaluator.n, method=method,
        converged=converged, iterations=iterations, objective=float(objective),
    )
    if compute_sandwich:
        m_hat, j_hat, v_hat = sandwich(family, result.estimate, measures, quad, config)
        result = FitResult(
            estimate=result.estimate, n=result.n, method=result.method,
            converged=result.converged, iterations=result.iterations,
            objective=result.objective, m_hat=m_hat, j_hat=j_hat, v_hat=v_hat,
            stderr=math.sqrt(max(v_hat, 0.0) / evaluator.n),
        )
    return result


def sandwich(family, estimate: float, sample: Sample,
             quad: QuadratureSpec = DEFAULT_QUAD,
             config: OptimizerConfig = DEFAULT_CONFIG) -> tuple[float, float, float]:
    """Slope / second-moment / variance triple at the estimate.

    The gradients are exact derivatives of the loss; the slope is a central
    finite difference of their mean with step sqrt(fd_step_rel); the
    variance is second moment over squared slope.
    """
    evaluator = _SampleEvaluator(family, _measures(sample), quad)
    z = evaluator.z_values(estimate)
    j_hat = float(np.mean(z * z))
    h = _fd_step(family, estimate, math.sqrt(config.fd_step_rel))
    m_hat = (evaluator.sum_z(estimate + h) - evaluator.sum_z(estimate - h)) \
        / (2.0 * h * evaluator.n)
    scale = max(1.0, math.sqrt(j_hat))
    if not math.isfinite(m_hat) or abs(m_hat) <= 1e-10 * scale:
        raise SingularSlopeError(
            f"mean-gradient slope {m_hat:.3e} is singular relative to the "
            f"score scale {scale:.3e} (conditioning {scale / max(abs(m_hat), 1e-300):.3e})"
        )
    v_hat = j_hat / (m_hat * m_hat)
    return float(m_hat), float(j_hat), float(v_hat)


@dataclass(frozen=True)
class BootstrapResult:
    """Bootstrap spread; ``failure_reasons`` counts failed refits by ``failure_reason``."""

    standard_error: float | None
    percentile_interval: tuple[float, float] | None
    estimates: np.ndarray
    n_failures: int
    failure_reasons: dict[str, int] = field(default_factory=dict)


def bootstrap_se(family, sample: Sample, replicates: int, seed: int,
                 config: OptimizerConfig = DEFAULT_CONFIG,
                 quad: QuadratureSpec = DEFAULT_QUAD,
                 method: str = "minimize") -> BootstrapResult:
    """Resampling standard error and percentile interval for the fit.

    Deterministic given the seed. A single replicate reports no spread;
    more than 10 percent refit failures aborts.
    """
    if replicates < 1:
        raise ValueError("need at least one bootstrap replicate")
    measures = list(sample)
    n = len(measures)
    rng = np.random.default_rng(seed)
    estimates = []
    reasons: Counter[str] = Counter()
    for _ in range(replicates):
        idx = rng.integers(0, n, size=n)
        resample = [measures[i] for i in idx]
        try:
            res = fit(family, resample, config, quad, method, compute_sandwich=False)
            estimates.append(res.estimate)
        except (FitError, ValueError, RuntimeError) as exc:
            reasons[failure_reason(exc)] += 1
    failures = reasons.total()
    if failures > 0.1 * replicates:
        raise RuntimeError(
            f"{failures} of {replicates} bootstrap refits failed (more than 10%): "
            f"{dict(reasons)}"
        )
    values = np.asarray(estimates)
    if values.size < 2:
        return BootstrapResult(None, None, values, failures, dict(reasons))
    return BootstrapResult(
        standard_error=float(values.std(ddof=1)),
        percentile_interval=(
            float(np.percentile(values, 2.5)), float(np.percentile(values, 97.5))
        ),
        estimates=values,
        n_failures=failures,
        failure_reasons=dict(reasons),
    )


def amse(variance: float, limit: float, true_value: float, n: int) -> float:
    """Asymptotic mean square error: variance over n plus squared bias."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    return variance / n + (limit - true_value) ** 2
