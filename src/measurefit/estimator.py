"""Generalized maximum likelihood for measure-valued samples.

The per-datapoint loss is W(c) = -log I(c), I(c) = integral(f_c dmu); its
parameter gradient Z(c) = -I'(c) / I(c) drives both the estimating equation
(sum of Z = 0) and the sandwich variance. Z is always the exact derivative
of the same integral W is computed from.

A fit evaluates every sample one way: compiled on its first evaluation
into a ``PanelRule``, which returns W, Z and the slope Z' = dZ/dc of every
measure at each c. A measure that is one closed-form term (an atom, a
gamma density under the exponential family, a normal density under the
normal location) reads them off its closed form, and a ``KernelSample`` of
such terms hands the rule its columns. Any other measure sums I, I' and I''
over closed-form terms (these, survival tails and exact normal ramps) and
quadrature panels checked against the adaptive tolerance at every c, and
takes Z = -I'/I and Z' = Z^2 - I''/I.

The fit is a Z-estimator solved by one method: safeguarded Newton on sum Z
with its exact slope sum Z', inside a bracket across which sum Z changes
sign; a sweep of the loss is only the fallback. The sandwich reads the same
exact slope, so no finite difference is taken anywhere. ``z_value`` is the
one-measure case of the same evaluator; ``integrate`` stays the
per-measure adaptive oracle behind ``w_value``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from .measure import KernelSample, PanelRule, RandomMeasure, integrate
from .quadrature import DEFAULT_QUAD, QuadratureSpec

Sample = Sequence[RandomMeasure]

_EPS = float(np.finfo(float).eps)


class FitError(RuntimeError):
    """Optimization or root finding could not produce an estimate."""


class SingularSlopeError(RuntimeError):
    """The slope of the mean estimating function is numerically singular."""


def failure_reason(exc: BaseException) -> str:
    """The key a study counts a failed fit under: ``"<ExceptionType>: <message>"``."""
    return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class OptimizerConfig:
    """Search bracket and tolerances of the solver.

    ``fit`` stops once a Newton step is within ``param_tol`` (plus 4 eps
    relative) and gives up after ``max_iter`` steps. ``objective_tol`` and
    ``fd_step_rel`` are still accepted and validated but no longer read:
    the solver stops on the parameter alone and the sandwich slope is
    exact. They stay because the benchmark workloads (``bench/workloads.py``) pin them.
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
    """An estimate with the summed loss at it.

    ``iterations`` counts the fit's evaluations of the sample (sums of W, Z
    and Z' at one c, or of W alone in the fallback sweep), the sandwich
    excluded.
    """

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
    """The sample as an evaluator takes it: a KernelSample or a resample as is, else a list."""
    return sample if isinstance(sample, (KernelSample, _Resample)) else list(sample)


class _SampleEvaluator:
    """Per-measure W, Z and Z' of one sample, read off its compiled ``PanelRule``.

    The rule is compiled on the first evaluation: an evaluator never asked
    reads nothing. A ``_Resample`` takes its rule from its base evaluator's
    instead. Every evaluation reads all three; ``w_values`` returns W
    and never raises, ``terms`` and ``z_values`` raise ``FitError`` where a
    W is not finite. ``calls`` counts the sums ``point`` and ``loss`` give the solver.
    """

    def __init__(self, family, measures: Sample, quad: QuadratureSpec) -> None:
        self.family = family
        self.measures = measures
        self.quad = quad
        self.n = len(measures)
        self.calls = 0
        self._rule: PanelRule | None = None

    def _build_profile(self) -> PanelRule:
        """Compile the sample's rule (the benchmark tracer times this call by its name)."""
        if isinstance(self.measures, _Resample):
            return self.measures.base.rule().take(self.measures.indices)
        return PanelRule(self.family, self.measures, self.quad)

    def rule(self) -> PanelRule:
        """The sample's rule, built on first use."""
        if self._rule is None:
            self._rule = self._build_profile()
        return self._rule

    def w_values(self, c: float) -> np.ndarray:
        """W of every measure at c; +inf where the integral vanishes."""
        return self.rule().losses(c)[0]

    def z_values(self, c: float) -> np.ndarray:
        return self.terms(c)[1]

    def terms(self, c: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """W, Z and the exact slope Z' of every measure at c; FitError where a W is not finite."""
        terms = self.rule().losses(c)
        if not np.isfinite(terms[0]).all():
            raise FitError(f"loss is not finite at c = {c}; gradient undefined")
        return terms

    def point(self, c: float) -> _Point | None:
        """Sums of W, Z and Z' at c; None where the loss or its score is not finite."""
        self.calls += 1
        try:
            w, z, dz = self.terms(c)
        except FitError:
            return None
        point = _Point(float(c), float(w.sum()), float(z.sum()), float(dz.sum()))
        return point if math.isfinite(point.w) and math.isfinite(point.z) else None

    def loss(self, c: float) -> float:
        """Sum of W at c, +inf where the loss is not finite."""
        self.calls += 1
        return float(self.w_values(c).sum())


@dataclass(frozen=True)
class _Resample:
    """A bootstrap resample: the measures of ``base``'s sample at ``indices``."""

    base: _SampleEvaluator
    indices: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)


# ---------------------------------------------------------------------------
# one-dimensional solvers


def _clip_bracket(family, bracket: tuple[float, float]) -> tuple[float, float]:
    # every family's parameter domain is unbounded above: (0, inf) or (-inf, inf)
    lo = family.param_bounds[0]
    a = max(bracket[0], lo + 1e-12 * max(1.0, abs(lo))) if math.isfinite(lo) else bracket[0]
    b = bracket[1]
    if not a < b:
        raise FitError(f"bracket {bracket} does not intersect the parameter domain")
    return a, b


class _Point(NamedTuple):
    """Summed loss, score and score slope at one parameter value."""

    c: float
    w: float
    z: float
    dz: float


def _scan_bracket(f, lo: float, hi: float, positive_domain: bool, points: int = 33):
    """Coarse sweep of the loss locating a finite sub-bracket around its best value.

    Returns the sub-bracket and the best grid point with its loss (score
    fields NaN). The loss can underflow to +inf over most of a wide bracket
    (deep tails); the sweep pins the search to the finite valley.
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
    point = _Point(float(grid[best]), float(values[best]), math.nan, math.nan)
    return grid[max(best - 1, 0)], grid[min(best + 1, points - 1)], point


def _midpoint(a: float, b: float, positive: bool) -> float:
    """Bisection point; geometric on a positive domain, where brackets span decades."""
    return math.sqrt(a) * math.sqrt(b) if positive else 0.5 * (a + b)


def _target(p: _Point, positive: bool) -> float:
    """The function Newton steps aim to zero: c * sum Z on a positive domain, else sum Z.

    Both have the same roots there; c * sum Z is nearly linear where sum Z
    behaves like a - n / c, as the score of a rate or tail parameter does.
    """
    return p.c * p.z if positive else p.z


def _step(p: _Point, positive: bool) -> float:
    """Newton step for the target from p, with the exact slope; NaN where it has none."""
    slope = p.z + p.c * p.dz if positive else p.dz
    return -_target(p, positive) / slope if math.isfinite(slope) and slope != 0.0 else math.nan


def _newton(evaluator: _SampleEvaluator, a: float, pa: _Point | None, b: float, pb: _Point | None,
            positive: bool, config: OptimizerConfig, ordered: bool):
    """Safeguarded Newton for the root of the summed score between a and b.

    An end point of None is one where the loss is not finite (it underflows
    in a deep tail); the score counts as negative there at a and positive at
    b, as on either side of a loss valley. Each step is a Newton step from
    the end with the smaller target, or else from the other end. It is
    replaced by bisection where both would leave the bracket, or where the
    last Newton step did not halve the target. A point where the loss is not
    finite replaces the end that is not finite either. Converged once a
    Newton step, or the bracket, is within ``param_tol`` (plus 4 eps
    relative); a last Newton step is taken without another evaluation.

    Returns the converged point and whether it converged, or None where the
    ends do not bracket a sign change (with ``ordered``, a rise through zero,
    so a root of a loss maximum is not taken) or no finite point turns up
    between two ends that are not finite.
    """
    for p in (pa, pb):
        if p is not None and p.z == 0.0:
            return p, True
    low = -1.0 if pa is None else math.copysign(1.0, pa.z)
    high = 1.0 if pb is None else math.copysign(1.0, pb.z)
    if low == high or (ordered and low > 0):
        return None
    point = newton_from = None
    for _ in range(config.max_iter):
        ends = sorted((p for p in (pa, pb) if p is not None),
                      key=lambda p: abs(_target(p, positive)))
        steps = [(p, _step(p, positive)) for p in ends]
        for p, step in steps:
            if abs(step) <= config.param_tol + 4.0 * _EPS * abs(p.c):
                # the loss moves by about step^2 * sum Z' over the last step,
                # far below its rounding, so p's loss stands for the estimate's
                return p._replace(c=p.c + step), True
        if len(ends) == 2 and b - a <= config.param_tol + 4.0 * _EPS * abs(ends[0].c):
            return ends[0], True
        c = None
        if newton_from is None or (abs(_target(point, positive))
                                   <= 0.5 * abs(_target(newton_from, positive))):
            for p, step in steps:
                if a < p.c + step < b:
                    c, newton_from = p.c + step, p
                    break
        if c is None:
            c, newton_from = _midpoint(a, b, positive), None
            if not a < c < b:  # an end that is not finite, squeezed onto a finite one
                return None
        point = evaluator.point(c)
        if point is None:
            newton_from = None
            if pa is None and pb is None:
                return None
            if pa is not None and pb is not None:
                raise FitError(f"loss is not finite at c = {c:g} inside a sign-change bracket")
            if pa is None:
                a = c
            else:
                b = c
        elif point.z == 0.0:
            return point, True
        elif math.copysign(1.0, point.z) == low:
            a, pa = c, point
        else:
            b, pb = c, point
    return point, False


def _expand(evaluator: _SampleEvaluator, pa: _Point, pb: _Point, positive: bool,
            max_expand: int = 60):
    """Geometric bracket growth toward the domain boundary until the score changes sign.

    The domain is (0, inf) when ``positive``, else (-inf, inf). A grown end
    where the loss is not finite counts as lying beyond the root, as an end
    of ``_newton``'s bracket does: it stops growing and is returned as None.
    Returns the bracket as ``(a, pa, b, pb)``.
    """
    a, b = pa.c, pb.c
    for _ in range(max_expand):
        if (-1.0 if pa is None else pa.z) * (1.0 if pb is None else pb.z) <= 0:
            return a, pa, b, pb
        span = b - a
        if pa is not None:
            a = max(a / 8.0, 1e-300) if positive else a - span
            pa = evaluator.point(a)
        if pb is not None:
            b = min(b * 8.0, 1e300) if positive else b + span
            pb = evaluator.point(b)
        if pa is None and pb is None:
            raise FitError(f"estimating equation is not finite at both ends of ({a:g}, {b:g})")
    raise FitError(
        f"estimating equation has no sign change on ({a:g}, {b:g}); "
        "no root bracketed within the parameter domain"
    )


def _warm_bracket(evaluator: _SampleEvaluator, start: float, a: float, b: float,
                  positive: bool):
    """A bracket of the summed score's sign change found from a pilot inside (a, b).

    Steps from the pilot by its Newton step, doubling the step from each
    new point until sum Z changes sign: the bracketing stage of the
    safeguarded Newton in Press et al., *Numerical Recipes*, 3rd ed., 9.4.
    Returns the bracket as ``(a, pa, b, pb)``, or None where a point is not
    finite, the step is undefined or it reaches an end of (a, b).
    """
    p = evaluator.point(start)
    if p is None:
        return None
    if p.z == 0.0:
        return p.c, p, p.c, p
    step = _step(p, positive)
    for _ in range(60):  # as many doublings as _expand's growths
        c = p.c + step
        if not (math.isfinite(c) and a < c < b):
            return None
        q = evaluator.point(c)
        if q is None:
            return None
        if q.z == 0.0 or math.copysign(1.0, q.z) != math.copysign(1.0, p.z):
            return (p.c, p, c, q) if step > 0 else (c, q, p.c, p)
        p, step = q, 2.0 * step
    return None


def _cold_solve(evaluator: _SampleEvaluator, a: float, b: float, positive: bool,
                config: OptimizerConfig, ordered: bool):
    """``_newton`` from the ends of the search bracket, with the fallbacks ``fit`` describes."""
    pa, pb = evaluator.point(a), evaluator.point(b)
    solved = _newton(evaluator, a, pa, b, pb, positive, config, ordered)
    if solved is None and ordered:
        lo, hi, best = _scan_bracket(evaluator.loss, a, b, positive)
        solved = _newton(evaluator, lo, evaluator.point(lo), hi, evaluator.point(hi),
                         positive, config, ordered)
        if solved is None:
            if best.c not in (a, b):
                raise FitError("no minimum of the objective bracketed")
            solved = best, True  # the loss is least at an end of the bracket
    elif solved is None:
        if pa is None or pb is None:
            lo, hi, _ = _scan_bracket(evaluator.loss, a, b, positive)
            pa, pb = evaluator.point(lo), evaluator.point(hi)
            solved = _newton(evaluator, lo, pa, hi, pb, positive, config, ordered)
            if solved is None and (pa is None or pb is None):
                raise FitError(f"estimating equation is not finite at both ends of "
                               f"({lo:g}, {hi:g})")
        if solved is None:
            solved = _newton(evaluator, *_expand(evaluator, pa, pb, positive),
                             positive, config, ordered)
            if solved is None:
                raise FitError("no finite root inside the grown bracket")
    return solved


def fit(family, sample: Sample, config: OptimizerConfig = DEFAULT_CONFIG,
        quad: QuadratureSpec = DEFAULT_QUAD, method: str = "minimize",
        compute_sandwich: bool = True, *, start: float | None = None) -> FitResult:
    """Estimate the parameter from a sample of random measures.

    Both methods solve the summed estimating equation sum Z = 0 by
    safeguarded Newton with the exact slope sum Z', inside a bracket across
    which sum Z changes sign. The bracket comes from the clipped search
    bracket, whose ends move in where the loss is not finite. Where that
    finds no finite point or no sign change, ``method="minimize"`` sweeps the
    summed loss for its best grid point and brackets the score around it; an
    optimum at the end of the search bracket is returned as that end.
    ``method="zroot"`` instead grows the bracket geometrically toward the
    domain boundary, starting from the finite valley of the loss where the
    score is undefined. The two agree at interior optima.

    A pilot ``start`` strictly inside the clipped search bracket is tried
    first: Newton steps from it, doubled until sum Z changes sign, give the
    bracket (``_warm_bracket``). Where they find no finite point or reach
    an end of the search bracket, or Newton finds no root in their bracket,
    the fit runs as without a pilot, so the bracket ends stay the walls and
    a pilot moves an estimate only by its rounding.
    """
    if method not in ("minimize", "zroot"):
        raise ValueError(f"unknown fit method {method!r}")
    measures = _measures(sample)
    if not measures:
        raise ValueError("sample must contain at least one measure")
    evaluator = _SampleEvaluator(family, measures, quad)
    a, b = _clip_bracket(family, config.bracket or family.default_bracket())
    positive = family.param_bounds[0] >= 0
    ordered = method == "minimize"
    solved = None
    if start is not None and a < start < b:
        bracket = _warm_bracket(evaluator, start, a, b, positive)
        if bracket is not None:
            solved = _newton(evaluator, *bracket, positive, config, ordered)
    if solved is None:
        solved = _cold_solve(evaluator, a, b, positive, config, ordered)
    point, converged = solved
    if not converged:
        raise FitError(f"{method} did not converge within {config.max_iter} iterations")

    result = FitResult(
        estimate=point.c, n=evaluator.n, method=method,
        converged=converged, iterations=evaluator.calls, objective=point.w,
    )
    if compute_sandwich:
        m_hat, j_hat, v_hat = _sandwich(evaluator, result.estimate)
        result = replace(result, m_hat=m_hat, j_hat=j_hat, v_hat=v_hat,
                         stderr=math.sqrt(max(v_hat, 0.0) / evaluator.n))
    return result


def sandwich(family, estimate: float, sample: Sample,
             quad: QuadratureSpec = DEFAULT_QUAD) -> tuple[float, float, float]:
    """Slope / second-moment / variance triple at the estimate.

    The gradients and the slope, their mean derivative, are exact
    derivatives of the loss; the variance is second moment over squared
    slope.
    """
    return _sandwich(_SampleEvaluator(family, _measures(sample), quad), estimate)


def _sandwich(evaluator: _SampleEvaluator, estimate: float) -> tuple[float, float, float]:
    _, z, slopes = evaluator.terms(estimate)
    j_hat = float(np.mean(z * z))
    m_hat = float(np.mean(slopes))
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

    The sample is compiled once, into a ``PanelRule`` that the first refit's
    first evaluation builds, and each refit takes its resample's rule from
    it with ``PanelRule.take``, which gives the values of a fresh compile.
    Every refit after the first success starts from that success's estimate
    (``fit``'s ``start``), which moves an estimate by its rounding only.
    """
    if replicates < 1:
        raise ValueError("need at least one bootstrap replicate")
    base = _SampleEvaluator(family, _measures(sample), quad)
    rng = np.random.default_rng(seed)
    estimates = []
    reasons: Counter[str] = Counter()
    for _ in range(replicates):
        resample = _Resample(base, rng.integers(0, base.n, size=base.n))
        try:
            res = fit(family, resample, config, quad, method, compute_sandwich=False,
                      start=estimates[0] if estimates else None)
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
