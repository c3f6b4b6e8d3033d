"""Seeded simulation studies for the expert-information estimators.

Draws measure-valued samples from the solvable scenarios (and from the
synthetic claims generator), refits each replication, and aggregates the
empirical counterparts of the consistency / normality / variance claims:
estimator mean and spread, mean square errors against both the true
parameter and the population limit, sandwich-based confidence interval
coverage, and the centering of the score at the limit.

All randomness flows from one master seed through per-replication spawned
streams, so results are reproducible regardless of execution order.

A solvable scenario's sample is a ``KernelSample``: the draws are kept as
columns (gamma shapes, rates and shifts, normal means and sds, or atom
locations). The sample checks each column once, as a whole, and builds its
measures from the checked columns rather than through a validating
constructor per measure. The fit, the sandwich and the score at the limit
take the columns as their rule's closed-form terms, so no replication
inspects its measures again; ``verify_m_matrix`` scores its draws by the
same closed forms and builds no measure. Claims scenarios give lists of
bridge measures.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .closedform import (
    ExpGammaSpec,
    NormalNormalSpec,
    eg_characteristics,
    nn_characteristics,
)
from .estimator import (
    DEFAULT_CONFIG,
    FitError,
    OptimizerConfig,
    _SampleEvaluator,
    failure_reason,
    fit,
)
from .measure import KernelSample, RandomMeasure, closed_form_terms
from .models import ExponentialRate, NormalLocation
from .quadrature import DEFAULT_QUAD, QuadratureSpec, check_count
from .tailstudy import TailScenarioSpec, build_bridge_sample, synthesize_claims

Scenario = ExpGammaSpec | NormalNormalSpec | TailScenarioSpec


@dataclass(frozen=True)
class StudyConfig:
    scenario: Scenario
    n: int
    replications: int
    seed: int
    ci_level: float = 0.95
    method: str | None = None
    optimizer: OptimizerConfig = DEFAULT_CONFIG
    quad: QuadratureSpec = DEFAULT_QUAD

    def __post_init__(self) -> None:
        check_count("n", self.n, 2)
        check_count("replications", self.replications, 1)
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must lie in (0, 1)")
        if self.method not in (None, "minimize", "zroot"):
            raise ValueError(f"unknown fit method {self.method!r}")


@dataclass(frozen=True)
class StudySummary:
    """Aggregates across replications plus the per-replication table.

    ``failure_reasons`` counts the failed replications by
    ``estimator.failure_reason``; ``n_failures`` is its total.
    """

    n: int
    replications: int
    n_failures: int
    mean_estimate: float
    var_estimate: float
    mse_vs_true: float | None
    mse_vs_limit: float | None
    coverage: float | None
    score_mean: float | None
    score_se: float | None
    limit: float | None
    true_value: float | None
    estimates: np.ndarray
    variances: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    covered: np.ndarray | None
    failure_reasons: dict[str, int] = field(default_factory=dict)


def _draw_columns(scenario: ExpGammaSpec | NormalNormalSpec, n: int,
                  rng: np.random.Generator):
    """One solvable sample as (family, kind, columns) of a ``KernelSample``."""
    if isinstance(scenario, ExpGammaSpec):
        xs = rng.exponential(1.0 / scenario.true_rate, size=n)
        s2 = scenario.expert_var
        if s2 == 0.0:
            return ExponentialRate(), "dirac", {"location": xs}
        return ExponentialRate(), "gamma", {"shape": xs / s2, "rate": 1.0 / s2, "shift": 0.0}
    xs = scenario.true_location + scenario.model_sd * rng.standard_normal(n)
    noise = rng.standard_normal(n)
    ys = scenario.noise_mean + scenario.noise_sd * (
        scenario.noise_corr * (xs - scenario.true_location) / scenario.model_sd
        + math.sqrt(1.0 - scenario.noise_corr**2) * noise
    )
    centers = xs + ys
    family = NormalLocation(scenario.model_sd)
    if scenario.expert_sd == 0.0:
        return family, "dirac", {"location": centers}
    return family, "normal", {"mean": centers, "sd": scenario.expert_sd}


def _draw(scenario: Scenario, n: int, rng: np.random.Generator):
    """One sample: returns (family, measures). Deterministic in the rng state."""
    if isinstance(scenario, (ExpGammaSpec, NormalNormalSpec)):
        family, kind, columns = _draw_columns(scenario, n, rng)
        return family, KernelSample(kind, **columns)
    if isinstance(scenario, TailScenarioSpec):
        records = synthesize_claims(
            n, scenario.tail_param, scenario.x0_scale, scenario.censoring,
            scenario.noise_sd, seed=int(rng.integers(2**63)),
        )
        return build_bridge_sample(records, scenario.k, scenario.sigma2, scenario.variant)
    raise TypeError(f"unknown scenario {scenario!r}")


def _scenario_limit(scenario: Scenario) -> float | None:
    if isinstance(scenario, ExpGammaSpec):
        return eg_characteristics(scenario).limit
    if isinstance(scenario, NormalNormalSpec):
        return nn_characteristics(scenario).limit
    return None


def _scenario_truth(scenario: Scenario) -> float | None:
    if isinstance(scenario, ExpGammaSpec):
        return scenario.true_rate
    if isinstance(scenario, NormalNormalSpec):
        return scenario.true_location
    return scenario.tail_param


def _scenario_method(scenario: Scenario, method: str | None) -> str:
    if method is not None:
        return method
    return "minimize" if isinstance(scenario, TailScenarioSpec) else "zroot"


def simulate_scenario(scenario: Scenario, n: int,
                      seed: int) -> KernelSample | list[RandomMeasure]:
    """Draw one measure-valued sample of size n, deterministic in the seed.

    A solvable scenario gives a ``KernelSample``, a claims scenario a list.
    """
    _, measures = _draw(scenario, n, np.random.default_rng(seed))
    return measures


def replicate(config: StudyConfig) -> StudySummary:
    """Fit every replication and aggregate the study.

    Per-replication confidence intervals use the sandwich variance from the
    fitted sample (the full pipeline a practitioner would run), not the
    analytic variance. More than 10 percent fit failures aborts.
    """
    seeds = np.random.SeedSequence(config.seed).spawn(config.replications)
    limit = _scenario_limit(config.scenario)
    truth = _scenario_truth(config.scenario)
    method = _scenario_method(config.scenario, config.method)
    z_crit = special.ndtri(0.5 + config.ci_level / 2.0)

    estimates, variances, ci_lo, ci_hi, covered = [], [], [], [], []
    score_sum = score_sq = 0.0
    score_count = 0
    reasons: Counter[str] = Counter()
    for child in seeds:
        rng = np.random.default_rng(child)
        family, measures = _draw(config.scenario, config.n, rng)
        try:
            res = fit(family, measures, config.optimizer, config.quad, method)
        except (FitError, ValueError, RuntimeError) as exc:
            reasons[failure_reason(exc)] += 1
            continue
        half = z_crit * math.sqrt(res.v_hat / res.n)
        estimates.append(res.estimate)
        variances.append(res.v_hat)
        ci_lo.append(res.estimate - half)
        ci_hi.append(res.estimate + half)
        if limit is not None:
            covered.append(ci_lo[-1] <= limit <= ci_hi[-1])
            z_vals = _SampleEvaluator(family, measures, config.quad).z_values(limit)
            score_sum += float(z_vals.sum())
            score_sq += float((z_vals * z_vals).sum())
            score_count += z_vals.size
    failures = reasons.total()
    if failures > 0.1 * config.replications:
        raise RuntimeError(
            f"{failures} of {config.replications} replications failed (more than 10%): "
            f"{dict(reasons)}"
        )

    est = np.asarray(estimates)
    mean_est = float(est.mean())
    var_est = float(est.var(ddof=1)) if est.size > 1 else 0.0
    score_mean = score_se = None
    if score_count > 1:
        score_mean = score_sum / score_count
        score_var = max(score_sq / score_count - score_mean**2, 0.0)
        score_se = math.sqrt(score_var / score_count)
    return StudySummary(
        n=config.n,
        replications=config.replications,
        n_failures=failures,
        mean_estimate=mean_est,
        var_estimate=var_est,
        mse_vs_true=float(np.mean((est - truth) ** 2)) if truth is not None else None,
        mse_vs_limit=float(np.mean((est - limit) ** 2)) if limit is not None else None,
        coverage=float(np.mean(covered)) if covered else None,
        score_mean=score_mean,
        score_se=score_se,
        limit=limit,
        true_value=truth,
        estimates=est,
        variances=np.asarray(variances),
        ci_lower=np.asarray(ci_lo),
        ci_upper=np.asarray(ci_hi),
        covered=np.asarray(covered) if covered else None,
        failure_reasons=dict(reasons),
    )


def score_mean_at_limit(scenario: ExpGammaSpec | NormalNormalSpec, draws: int,
                        seed: int) -> tuple[float, float]:
    """Monte Carlo mean of the score at the population limit, with its SE.

    The mean estimating function vanishes at the limit, so the returned
    mean should sit within a few SEs of zero.
    """
    if draws < 2:
        raise ValueError("draws must be at least 2")
    limit = _scenario_limit(scenario)
    if limit is None:
        raise ValueError("scenario has no analytic limit")
    family, measures = _draw(scenario, draws, np.random.default_rng(seed))
    z = _SampleEvaluator(family, measures, DEFAULT_QUAD).z_values(limit)
    return float(z.mean()), float(z.std(ddof=1) / math.sqrt(z.size))


@dataclass(frozen=True)
class SlopeCheck:
    """Finite-difference Monte Carlo slope of the mean score vs closed forms.

    ``magnitude_matches`` flags which closed-form candidate the measured
    slope magnitude agrees with (within 4 Monte Carlo SEs). When the SEs
    are too wide to discriminate, ``conclusive`` is False and
    ``required_draws`` estimates the draws needed.
    """

    slope: float
    slope_se: float
    candidates: dict[str, float]
    magnitude_matches: dict[str, bool]
    conclusive: bool
    required_draws: int | None
    sign: int


def verify_m_matrix(scenario: ExpGammaSpec | NormalNormalSpec,
                    at: float | None = None, step: float = 1e-4,
                    draws: int = 10**6, seed: int = 0) -> SlopeCheck:
    """Estimate the slope of the mean score by common-random-number differencing.

    Compares the measured slope magnitude against every closed-form
    candidate (the derivative-verified one and, where it exists, the
    circulating variant), flagging which candidate the data supports.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if draws < 2:
        raise ValueError("draws must be at least 2")
    if isinstance(scenario, ExpGammaSpec):
        ch = eg_characteristics(scenario)
        candidates = {"confirmed": ch.slope, "variant": ch.slope_variant}
    elif isinstance(scenario, NormalNormalSpec):
        ch = nn_characteristics(scenario)
        candidates = {"confirmed": ch.slope}
    else:
        raise TypeError("slope verification needs a solvable scenario")
    c = ch.limit if at is None else at
    # the draws as columns, scored by the rule's closed forms: no measures
    family, kind, columns = _draw_columns(scenario, draws, np.random.default_rng(seed))
    z_at = lambda cc: closed_form_terms(family, kind, cc, columns)[1]

    per_draw = (z_at(c + step) - z_at(c - step)) / (2.0 * step)
    slope = float(np.mean(per_draw))
    slope_se = float(np.std(per_draw, ddof=1) / math.sqrt(draws))
    matches = {}
    for name, value in candidates.items():
        if value is None:
            continue
        tol = max(4.0 * slope_se, 1e-9 * max(1.0, abs(value)))
        matches[name] = abs(abs(slope) - abs(value)) <= tol
    conclusive = sum(matches.values()) == 1
    required = None
    if not conclusive and len(matches) > 1:
        vals = [abs(v) for v in candidates.values() if v is not None]
        gap = abs(vals[0] - vals[1])
        if gap > 0 and slope_se > 0:
            sd = slope_se * math.sqrt(draws)
            required = int(math.ceil((8.0 * sd / gap) ** 2))
    return SlopeCheck(
        slope=slope,
        slope_se=slope_se,
        candidates={k: v for k, v in candidates.items() if v is not None},
        magnitude_matches=matches,
        conclusive=conclusive,
        required_draws=required,
        sign=int(math.copysign(1.0, slope)) if slope != 0 else 0,
    )
