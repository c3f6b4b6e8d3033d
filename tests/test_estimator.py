import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measurefit import (
    ConstantTail,
    DiracAtom,
    ExpGammaSpec,
    ExponentialRate,
    FitError,
    GammaKernel,
    NormalKernel,
    NormalLocation,
    NormalNormalSpec,
    OptimizerConfig,
    ParetoTail,
    QuadratureSpec,
    RandomMeasure,
    StudyConfig,
    TailConfig,
    WeightedDensity,
    amse,
    bootstrap_se,
    fit,
    generalized_loglik,
    make_dirac,
    make_gamma_bridge,
    make_measurement_uncertainty,
    make_right_censoring,
    per_point_loglik,
    sandwich,
    simulate_scenario,
    w_value,
    z_value,
)
from measurefit import estimator
from measurefit.estimator import _SampleEvaluator
from measurefit.measure import PanelRule
from measurefit.tailstudy import build_bridge_sample, synthesize_claims


def gamma_measure(x, s2):
    return RandomMeasure((WeightedDensity(1.0, GammaKernel(x / s2, 1.0 / s2)),))


def normal_measure(center, sd):
    return RandomMeasure((WeightedDensity(1.0, NormalKernel(center, sd)),))


# ---------------------------------------------------------------------------
# W and Z values


def test_w_value_exp_gamma(exp_family):
    # (x/s2) log(1 + s2 c) - log c at x = s2 = c = 1
    assert w_value(exp_family, 1.0, gamma_measure(1.0, 1.0)) == pytest.approx(
        math.log(2.0), rel=1e-9
    )


def test_w_value_dirac_is_negative_log_density(pareto_family):
    measure = make_dirac(2.0)
    assert w_value(pareto_family, 1.5, measure) == pytest.approx(
        -math.log(pareto_family.density(1.5, 2.0))
    )


def test_w_value_normal_normal(normal_family):
    # -log of a normal density with variance sigma1^2 + sd^2
    center, sd, c = 0.7, 0.5, 0.2
    s2 = 1.0 + sd * sd
    expected = 0.5 * math.log(2 * math.pi * s2) + (center - c) ** 2 / (2 * s2)
    assert w_value(normal_family, c, normal_measure(center, sd)) == pytest.approx(expected)


def test_w_value_infinite_when_integral_vanishes(pareto_family):
    assert w_value(pareto_family, 1.0, make_dirac(0.5)) == math.inf


def test_z_value_exp_gamma(exp_family):
    assert z_value(exp_family, 1.0, gamma_measure(1.0, 1.0)) == pytest.approx(-0.5)


def test_z_value_dirac_score_flip(exp_family):
    measure = make_dirac(2.0)
    assert z_value(exp_family, 1.0, measure) == pytest.approx(-(1.0 - 2.0))


def test_z_value_normal_zero_at_center(normal_family):
    assert z_value(normal_family, 0.7, normal_measure(0.7, 2.0)) == pytest.approx(0.0)


@pytest.mark.parametrize(
    "family,measure,c",
    [
        (ExponentialRate(), gamma_measure(1.7, 0.4), 0.8),
        (ParetoTail(1.0), make_gamma_bridge(1.5, 2.5, 0.6, "A"), 1.2),
        (ParetoTail(1.0), RandomMeasure((ConstantTail(2.0, 0.7),)), 0.9),
        (NormalLocation(1.0), RandomMeasure((WeightedDensity(1.0, NormalKernel(1.2, 0.3)),
                                             DiracAtom(0.4))), 0.5),
    ],
)
def test_z_value_matches_independent_differences(family, measure, c):
    z = z_value(family, c, measure)
    h = 3e-6 * max(abs(c), 1.0)
    fd = (w_value(family, c + h, measure) - w_value(family, c - h, measure)) / (2 * h)
    assert z == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_z_value_at_boundary_raises(exp_family):
    from measurefit import ParameterDomainError

    with pytest.raises(ParameterDomainError):
        z_value(exp_family, 0.0, gamma_measure(1.0, 1.0))


# ---------------------------------------------------------------------------
# log likelihood


def test_loglik_dirac_reduces_to_classical(exp_family, rng):
    xs = rng.exponential(2.0, size=40)
    sample = [make_dirac(x) for x in xs]
    classical = np.sum(np.log(exp_family.density(1.3, xs)))
    assert generalized_loglik(exp_family, 1.3, sample) == pytest.approx(classical)


def test_loglik_right_censoring_equals_survival_form(pareto_family, rng):
    xs = 1.0 * (1 - rng.random(60)) ** (-1.0 / 1.5)
    cens = 1.0 * (1 - rng.random(60)) ** (-1.0 / 2.0)
    paid = np.minimum(xs, cens)
    settled = (xs <= cens).astype(int)
    sample = [make_right_censoring(w, d) for w, d in zip(paid, settled)]
    c = 1.4
    direct = np.sum(
        settled * np.log(pareto_family.density(c, paid))
        + (1 - settled) * np.log(pareto_family.survival(c, paid))
    )
    assert abs(generalized_loglik(pareto_family, c, sample) - direct) < 1e-9


def test_loglik_single_exp_gamma(exp_family):
    assert generalized_loglik(exp_family, 1.0, [gamma_measure(1.0, 1.0)]) == pytest.approx(
        math.log(0.5), rel=1e-9
    )


def test_loglik_minus_infinity_with_count(pareto_family):
    sample = [make_dirac(2.0), make_dirac(0.5), make_dirac(0.2)]
    assert generalized_loglik(pareto_family, 1.0, sample) == -math.inf
    terms = per_point_loglik(pareto_family, 1.0, sample)
    assert int(np.isneginf(terms).sum()) == 2


# ---------------------------------------------------------------------------
# fitting


def test_fit_exp_gamma_closed_form(exp_family):
    # fixed draws with mean 2.5 and expert scale 0.5: root at 1/(2.5 - 0.5)
    xs = [1.0, 2.0, 3.0, 4.0]  # mean 2.5
    sample = [gamma_measure(x, 0.5) for x in xs]
    res = fit(exp_family, sample, method="zroot")
    assert res.estimate == pytest.approx(0.5, abs=1e-10)
    assert res.converged


@pytest.mark.parametrize("sd", [0.0, 0.5, 2.0, 10.0])
def test_fit_normal_center_mean_any_spread(normal_family, sd):
    centers = [1.0, 2.0, 3.0]
    if sd == 0.0:
        sample = [make_dirac(u) for u in centers]
    else:
        sample = [normal_measure(u, sd) for u in centers]
    res = fit(normal_family, sample, method="zroot")
    assert abs(res.estimate - 2.0) < 1e-8


def test_fit_pareto_dirac_hill_form(pareto_family, rng):
    xs = 1.0 * (1 - rng.random(80)) ** (-1.0 / 1.7)
    sample = [make_dirac(x) for x in xs]
    res = fit(pareto_family, sample, method="zroot")
    hill = len(xs) / np.log(xs / 1.0).sum()
    assert res.estimate == pytest.approx(hill, abs=1e-9)


def test_fit_methods_agree(exp_family, rng):
    xs = rng.exponential(2.0, size=120)
    sample = [gamma_measure(x, 0.25) for x in xs]
    a = fit(exp_family, sample, method="minimize", compute_sandwich=False)
    b = fit(exp_family, sample, method="zroot", compute_sandwich=False)
    assert abs(a.estimate - b.estimate) < 1e-7


def test_fit_zroot_expands_bracket(exp_family):
    sample = [gamma_measure(x, 0.5) for x in [1.0, 2.0, 3.0, 4.0]]
    config = OptimizerConfig(bracket=(50.0, 90.0))  # root is at 0.5, far below
    res = fit(exp_family, sample, config=config, method="zroot")
    assert res.estimate == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("family", [ExponentialRate(), ParetoTail(1.0), NormalLocation(1.0)])
def test_parameter_domains_are_unbounded_above(family):
    # the bracket clip and the bracket growth assume one of these two domains
    assert family.param_bounds in ((0.0, math.inf), (-math.inf, math.inf))


@pytest.mark.parametrize("family, atoms, bracket, mle", [
    (ExponentialRate(), [5.0, 6.0, 7.0], (50.0, 90.0), 1.0 / 6.0),
    (ParetoTail(1.0), [50.0, 100.0], (50.0, 90.0), 2.0 / (math.log(50.0) + math.log(100.0))),
    (NormalLocation(1.0), [20.0, 21.0], (-5.0, 5.0), 20.5),
])
def test_fit_zroot_grows_past_an_end_where_the_loss_underflows(family, atoms, bracket, mle):
    # growing the bracket reaches an end where the loss underflows (c = 720,
    # or c = -45 for the normal): that end lies beyond the root and stops
    # there, while the other end grows on to the sign change
    sample = [make_dirac(x) for x in atoms]
    res = fit(family, sample, OptimizerConfig(bracket=bracket), method="zroot")
    assert res.converged
    assert res.estimate == pytest.approx(mle, rel=1e-12)


def _claims_bridge_sample(seed):
    records = synthesize_claims(837, 1.5, 1.0, 1.4938, 0.1, seed=seed)
    return build_bridge_sample(records, 69, 0.5, "A")


def _normal_ramp_sample(seed):
    # right-censored normal data with a normal expert spread: settled values
    # give densities, open ones CDF ramps
    rng = np.random.default_rng(seed)
    x = 1.0 + rng.standard_normal(50)
    cut = 1.5 + rng.standard_normal(50)
    measures = [make_measurement_uncertainty(NormalKernel(float(u), 0.5), int(s))
                for u, s in zip(np.minimum(x, cut), x <= cut)]
    return NormalLocation(1.0), measures


@pytest.mark.parametrize("build, seed, bracket", [
    (_claims_bridge_sample, 1_000_003, (1e-3, 1e3)),
    (_claims_bridge_sample, 1_000_007, (1e-3, 1e3)),
    (_normal_ramp_sample, [1, 1], (-10.0, 10.0)),
    (_normal_ramp_sample, [1, 3], None),
])
def test_fit_zroot_where_loss_underflows_at_bracket_ends(build, seed, bracket):
    # where the gradient is undefined at a bracket end, the root search
    # starts from the finite valley of the loss
    family, sample = build(seed)
    config = OptimizerConfig(bracket=bracket)
    ends = bracket or family.default_bracket()
    if bracket == (-10.0, 10.0):
        # exact normal ramps keep every integral positive at c = -10 and 10
        assert all(math.isfinite(z_value(family, c, m)) for c in ends for m in sample)
    else:
        with pytest.raises(FitError):
            sum(z_value(family, c, m) for c in ends for m in sample)
    a = fit(family, sample, config, method="minimize", compute_sandwich=False)
    b = fit(family, sample, config, method="zroot", compute_sandwich=False)
    assert b.converged
    assert b.estimate == pytest.approx(a.estimate, rel=1e-7)


class _CountingEvaluator(_SampleEvaluator):
    """Counts every evaluation a fit asks of its sample."""

    calls = 0

    def w_values(self, c):
        type(self).calls += 1
        return super().w_values(c)

    def z_values(self, c):
        type(self).calls += 1
        return super().z_values(c)

    def terms(self, c):
        type(self).calls += 1
        return super().terms(c)


@pytest.mark.parametrize("method", ["minimize", "zroot"])
def test_claims_fit_makes_few_evaluator_calls(monkeypatch, method):
    # Newton steps on the exact slope from the bracket ends; a 33-point scan
    # of the loss alone would exceed the bound
    family, sample = _claims_bridge_sample(7)
    monkeypatch.setattr(estimator, "_SampleEvaluator", _CountingEvaluator)
    _CountingEvaluator.calls = 0
    res = fit(family, sample, OptimizerConfig(bracket=(1e-3, 1e3)), method=method,
              compute_sandwich=False)
    assert res.converged
    assert _CountingEvaluator.calls <= 15
    assert res.iterations == _CountingEvaluator.calls


@pytest.mark.parametrize("build, seed", [
    (_claims_bridge_sample, 7), (_claims_bridge_sample, 1_000_003),
    (_normal_ramp_sample, [1, 1]), (_normal_ramp_sample, [1, 3]),
])
def test_minimize_and_zroot_agree_on_interior_optima(build, seed):
    family, sample = build(seed)
    a = fit(family, sample, method="minimize", compute_sandwich=False)
    b = fit(family, sample, method="zroot", compute_sandwich=False)
    assert a.estimate == pytest.approx(b.estimate, rel=1e-12)
    assert a.objective == pytest.approx(b.objective, rel=1e-12)
    z = sum(z_value(family, a.estimate, m) for m in sample)
    assert abs(z) <= 1e-6


def test_minimize_returns_the_bracket_end_at_a_boundary_optimum(exp_family):
    # atoms with mean 0.5 put the optimum at rate 2, below the bracket
    sample = [make_dirac(x) for x in (0.25, 0.5, 0.75)]
    config = OptimizerConfig(bracket=(5.0, 10.0))
    res = fit(exp_family, sample, config, method="minimize", compute_sandwich=False)
    assert res.estimate == 5.0
    assert res.objective == pytest.approx(-generalized_loglik(exp_family, 5.0, sample))
    assert fit(exp_family, sample, config, method="zroot").estimate == pytest.approx(2.0)


@pytest.mark.parametrize("method", ["minimize", "zroot"])
@pytest.mark.parametrize("bracket", [(5.0, 10.0), (0.0, 5.0)])
def test_an_exact_zero_score_at_a_bracket_end_is_the_estimate(method, bracket):
    # atoms at 4 and 6 put sum Z = 0 exactly at c = 5, one end of either
    # bracket: the solver returns that end after evaluating the two ends
    sample = [make_dirac(4.0), make_dirac(6.0)]
    res = fit(NormalLocation(1.0), sample, OptimizerConfig(bracket=bracket), method=method)
    assert res.estimate == 5.0
    assert res.converged
    assert res.iterations == 2


class _Scores:
    """A stand-in evaluator for ``_newton``: the summed score and its slope at c, from ``score``.

    ``point(c)`` is None where ``finite(c)`` is false, as where a loss underflows.
    """

    def __init__(self, score, finite=lambda c: True):
        self.score, self.finite = score, finite

    def point(self, c):
        return estimator._Point(c, 0.0, *self.score(c)) if self.finite(c) else None


def test_newton_stops_once_the_bracket_is_within_param_tol():
    # a score that jumps from -1 to 1 at 0.3 has no slope, so no Newton step:
    # bisection narrows the bracket until it is within param_tol
    config = OptimizerConfig()
    scores = _Scores(lambda c: (-1.0 if c < 0.3 else 1.0, 0.0))
    point, converged = estimator._newton(scores, 0.0, scores.point(0.0), 1.0, scores.point(1.0),
                                         False, config, True)
    assert converged and abs(point.c - 0.3) <= config.param_tol


def test_newton_moves_an_end_that_is_not_finite_onto_a_point_that_is_not_either():
    # the Newton step from -3 leaves the bracket and the first midpoint, 3.5,
    # lies where the loss is not finite: it becomes the upper end, and the
    # solve then converges on the root at 1
    scores = _Scores(lambda c: (math.tanh(c - 1.0), 1.0 - math.tanh(c - 1.0) ** 2),
                     finite=lambda c: c < 2.0)
    point, converged = estimator._newton(scores, -3.0, scores.point(-3.0), 10.0, None,
                                         False, OptimizerConfig(), True)
    assert converged and point.c == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_newton_finds_no_root_where_the_score_keeps_its_sign_up_to_a_loss_that_is_not_finite(sign):
    # the score keeps one sign up to 2, beyond which (below which, for a
    # positive score) the loss is not finite: each end closes on 2 until the
    # midpoint of the bracket is one of its ends, and there is no root
    scores = _Scores(lambda c: (sign, 0.0), finite=lambda c: sign * (c - 2.0) > 0.0)
    ends = (0.0, scores.point(0.0), 10.0, None) if sign < 0 else (0.0, None, 10.0, scores.point(10.0))
    assert estimator._newton(scores, *ends, False, OptimizerConfig(), True) is None


def _exp_censored_sample(seed):
    # exponential draws, a third of them right-censored at the draw
    xs = np.random.default_rng(seed).exponential(2.0, size=60)
    return ExponentialRate(), [make_right_censoring(float(x), int(i % 3 > 0))
                               for i, x in enumerate(xs)]


_PILOT_SAMPLES = [(_exp_censored_sample, 3), (_claims_bridge_sample, 7),
                  (_normal_ramp_sample, [1, 1])]


@pytest.mark.parametrize("build, seed", _PILOT_SAMPLES)
@pytest.mark.parametrize("method", ["minimize", "zroot"])
def test_a_fit_from_a_pilot_equals_the_cold_fit(build, seed, method):
    family, sample = build(seed)
    cold = fit(family, sample, method=method, compute_sandwich=False)
    for offset in (-0.4, -1e-3, 1e-3, 0.5, 3.0):
        warm = fit(family, sample, method=method, compute_sandwich=False,
                   start=cold.estimate * (1.0 + offset))
        assert warm.estimate == pytest.approx(cold.estimate, rel=1e-12, abs=0)
        assert warm.objective == pytest.approx(cold.objective, rel=1e-12, abs=0)
        if abs(offset) < 0.01:  # a pilot near the answer saves the bracket ends
            # c * sum Z is linear in c for exponential atoms and tails, so one
            # Newton step from a cold bracket end is already exact there
            if build is _exp_censored_sample:
                assert warm.iterations <= cold.iterations
            else:
                assert warm.iterations < cold.iterations


@pytest.mark.parametrize("build, seed", _PILOT_SAMPLES)
def test_a_pilot_at_or_outside_the_bracket_runs_the_cold_fit(build, seed):
    family, sample = build(seed)
    config = OptimizerConfig(bracket=(-2.0, 20.0) if family.param_bounds[0] < 0 else (0.1, 20.0))
    cold = fit(family, sample, config, compute_sandwich=False)
    for start in (*config.bracket, -50.0, 50.0, math.nan):
        assert fit(family, sample, config, compute_sandwich=False, start=start) == cold


def test_a_pilot_keeps_a_boundary_optimum_at_the_bracket_end(exp_family):
    # the optimum, rate 2, lies below the bracket; the pilot's Newton step
    # leaves the bracket, so the fit runs cold and returns the end
    sample = [make_dirac(x) for x in (0.25, 0.5, 0.75)]
    config = OptimizerConfig(bracket=(5.0, 10.0))
    cold = fit(exp_family, sample, config, compute_sandwich=False)
    warm = fit(exp_family, sample, config, compute_sandwich=False, start=7.0)
    assert warm.estimate == cold.estimate == 5.0
    assert warm.objective == cold.objective
    assert warm.iterations == cold.iterations + 1  # the pilot


def test_fit_finds_a_narrow_valley_off_the_bracket_center():
    # the loss is finite only within about 38 of the atoms at 900 and 901,
    # so both ends and the bracket's midpoint underflow and the sweep of the
    # loss brackets the valley
    family = NormalLocation(1.0)
    sample = [make_dirac(900.0), make_dirac(901.0)]
    for method in ("minimize", "zroot"):
        res = fit(family, sample, method=method, compute_sandwich=False)
        assert res.estimate == pytest.approx(900.5, abs=1e-10)


def test_fit_empty_sample_rejected(exp_family):
    with pytest.raises(ValueError):
        fit(exp_family, [])


@pytest.mark.parametrize("field", ["param_tol", "objective_tol", "fd_step_rel"])
@pytest.mark.parametrize("value", [math.nan, 0.0, -1e-10])
def test_optimizer_config_rejects_tolerances_that_are_not_positive(field, value):
    # nan <= 0 is false, so a nan tolerance must fail a check written as not x > 0
    with pytest.raises(ValueError):
        OptimizerConfig(**{field: value})


@pytest.mark.parametrize("build", [
    lambda: OptimizerConfig(param_tol=math.inf),
    lambda: OptimizerConfig(objective_tol=math.inf),
    lambda: OptimizerConfig(fd_step_rel=math.inf),
    lambda: OptimizerConfig(max_iter=2.5),
    lambda: QuadratureSpec(rel_tol=math.inf),
    lambda: QuadratureSpec(abs_tol=math.inf),
    lambda: QuadratureSpec(max_subdivisions=2.5),
    lambda: StudyConfig(scenario=ExpGammaSpec(0.5, 0.5), n=50.5, replications=2, seed=0),
    lambda: StudyConfig(scenario=ExpGammaSpec(0.5, 0.5), n=50, replications=2.5, seed=0),
    lambda: TailConfig(k=2.5),
    lambda: bootstrap_se(ExponentialRate(), [make_dirac(1.0), make_dirac(2.0)], 2.5, seed=0),
], ids=["param_tol", "objective_tol", "fd_step_rel", "max_iter", "rel_tol", "abs_tol",
        "max_subdivisions", "n", "replications", "k", "replicates"])
def test_settings_reject_infinite_tolerances_and_counts_that_are_not_integers(build):
    # an infinite param_tol stops the solver at its first step, an infinite
    # rel_tol accepts every panel, and a count of 2.5 fails deep inside
    # (range, slicing, the rng) with a TypeError rather than here
    with pytest.raises(ValueError):
        build()


def test_fit_objective_infinite_everywhere(pareto_family):
    sample = [make_dirac(0.5)]  # below the threshold: zero density for every c
    with pytest.raises(FitError):
        fit(pareto_family, sample, method="minimize", compute_sandwich=False)


def test_fit_result_reports_sandwich(exp_family, rng):
    xs = rng.exponential(2.0, size=200)
    sample = [make_dirac(x) for x in xs]
    res = fit(exp_family, sample, method="zroot")
    assert res.v_hat is not None
    assert res.stderr == pytest.approx(math.sqrt(res.v_hat / res.n))


# ---------------------------------------------------------------------------
# sandwich


def test_sandwich_matches_classical_exponential(exp_family, rng):
    xs = rng.exponential(2.0, size=20000)
    sample = [make_dirac(x) for x in xs]
    res = fit(exp_family, sample, method="zroot", compute_sandwich=False)
    m, j, v = sandwich(exp_family, res.estimate, sample)
    # classical: slope 1/c^2, score moment Var(X), variance c^2 at the truth
    assert m == pytest.approx(1.0 / res.estimate**2, rel=1e-5)
    assert v == pytest.approx(0.25, rel=0.05)


@pytest.mark.parametrize("spec", [
    ExpGammaSpec(0.5, 0.5), ExpGammaSpec(2.0, 0.1),
    NormalNormalSpec(2.0, 1.0, noise_mean=0.1, noise_sd=0.3, expert_sd=0.7),
])
def test_v_hat_equals_the_analytic_sandwich(spec):
    # the closed-form profiles' Z and exact Z', summed by hand
    sample = simulate_scenario(spec, 400, seed=5)
    if sample.kind == "gamma":
        family = ExponentialRate()
        res = fit(family, sample, method="zroot")
        cols, c = sample.columns, res.estimate
        z = cols["shift"] + cols["shape"] / (cols["rate"] + c) - 1.0 / c
        slope = 1.0 / c**2 - cols["shape"] / (cols["rate"] + c) ** 2
    else:
        family = NormalLocation(1.0)
        res = fit(family, sample, method="zroot")
        s2 = 1.0 + sample.columns["sd"] ** 2
        z = (res.estimate - sample.columns["mean"]) / s2
        slope = 1.0 / s2
    m_hat, j_hat = np.mean(slope), np.mean(z * z)
    assert res.m_hat == pytest.approx(m_hat, rel=1e-12)
    assert res.v_hat == pytest.approx(j_hat / m_hat**2, rel=1e-10)


def test_fit_with_sandwich_compiles_one_rule(monkeypatch):
    built = []

    class CountingRule(PanelRule):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(estimator, "PanelRule", CountingRule)
    family, sample = _claims_bridge_sample(7)
    res = fit(family, sample, OptimizerConfig(bracket=(1e-3, 1e3)))
    assert len(built) == 1
    assert (res.m_hat, res.j_hat, res.v_hat) == pytest.approx(
        sandwich(family, res.estimate, sample), rel=1e-9)


def test_sandwich_invariant_to_reordering(exp_family, rng):
    xs = rng.exponential(2.0, size=50)
    sample = [gamma_measure(x, 0.5) for x in xs]
    m1, j1, v1 = sandwich(exp_family, 0.6, sample)
    m2, j2, v2 = sandwich(exp_family, 0.6, sample[::-1])
    assert v1 == pytest.approx(v2, rel=1e-12)


def test_sandwich_quadrature_sample(pareto_family, rng):
    # mixed atoms and bridges exercise the finite-difference slope path
    sample = [make_dirac(2.0), make_gamma_bridge(1.5, 3.0, 0.5), make_dirac(1.8)]
    m, j, v = sandwich(pareto_family, 1.2, sample)
    assert v > 0 and j > 0


def test_sandwich_normal_recovers_sum_variance(normal_family, rng):
    # centers are draws plus noise; asymptotic variance is Var(X + Y)
    n = 20000
    xs = 2.0 + rng.standard_normal(n)
    ys = 0.1 + 0.3 * rng.standard_normal(n)
    sample = [normal_measure(u, 0.7) for u in xs + ys]
    res = fit(normal_family, sample, method="zroot")
    assert res.v_hat == pytest.approx(1.0 + 0.09, rel=0.05)


# ---------------------------------------------------------------------------
# bootstrap and amse


def test_bootstrap_single_replicate_has_no_se(exp_family):
    sample = [make_dirac(x) for x in (1.0, 2.0, 3.0)]
    res = bootstrap_se(exp_family, sample, replicates=1, seed=0)
    assert res.standard_error is None
    assert res.percentile_interval is None


def test_bootstrap_identical_sample_zero_se(exp_family):
    sample = [make_dirac(2.0)] * 10
    res = bootstrap_se(exp_family, sample, replicates=25, seed=0, method="zroot")
    assert res.standard_error == pytest.approx(0.0, abs=1e-12)


def test_bootstrap_exponential_se_matches_classical(exp_family, rng):
    xs = rng.exponential(2.0, size=500)
    sample = [make_dirac(x) for x in xs]
    est = fit(exp_family, sample, method="zroot", compute_sandwich=False).estimate
    res = bootstrap_se(exp_family, sample, replicates=500, seed=42, method="zroot")
    classical = math.sqrt(est**2 / len(xs))
    assert abs(res.standard_error - classical) / classical < 0.25
    assert res.n_failures == 0


def test_bootstrap_compiles_the_sample_once_inside_its_first_refit(monkeypatch):
    events, starts = [], []
    real_fit = estimator.fit

    def recording_fit(*args, **kwargs):
        events.append("fit")
        starts.append(kwargs["start"])
        result = real_fit(*args, **kwargs)
        events.append("done")
        return result

    class CountingRule(PanelRule):
        def __init__(self, *args, **kwargs):
            events.append("compile")
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(estimator, "fit", recording_fit)
    monkeypatch.setattr(estimator, "PanelRule", CountingRule)
    family, sample = _claims_bridge_sample(7)
    res = bootstrap_se(family, sample, 4, seed=1, config=OptimizerConfig(bracket=(1e-3, 1e3)))
    assert events == ["fit", "compile", "done"] + ["fit", "done"] * 3
    assert starts == [None] + [res.estimates[0]] * 3  # later refits start from the first


@pytest.mark.parametrize("build, seed", [(_claims_bridge_sample, 7), (_normal_ramp_sample, [1, 1]),
                                         (_exp_censored_sample, 3)])
def test_bootstrap_refits_match_cold_fits_of_the_resamples(build, seed):
    # every refit after the first starts from the first one's estimate, which
    # moves it by rounding only
    family, sample = build(seed)
    res = bootstrap_se(family, sample, 6, seed=2)
    rng = np.random.default_rng(2)
    cold = [fit(family, [sample[i] for i in rng.integers(0, len(sample), size=len(sample))],
                compute_sandwich=False).estimate for _ in range(6)]
    assert res.estimates[0] == cold[0]
    assert res.estimates.tolist() == pytest.approx(cold, rel=1e-12, abs=0)


def test_bootstrap_deterministic(exp_family, rng):
    xs = rng.exponential(2.0, size=60)
    sample = [make_dirac(x) for x in xs]
    a = bootstrap_se(exp_family, sample, replicates=40, seed=9, method="zroot")
    b = bootstrap_se(exp_family, sample, replicates=40, seed=9, method="zroot")
    assert np.array_equal(a.estimates, b.estimates)


def test_amse_values():
    assert amse(0.25, 0.5, 0.5, 100) == pytest.approx(0.0025)
    assert amse(0.25, 0.5, 0.5, 1) == pytest.approx(0.25)
    assert amse(0.3, 0.7, 0.5, 10**9) == pytest.approx(0.04, rel=1e-6)
    with pytest.raises(ValueError):
        amse(0.25, 0.5, 0.5, 0)
    with pytest.raises(ValueError):
        amse(-0.1, 0.5, 0.5, 10)


@settings(max_examples=30, deadline=None)
@given(
    xs=st.lists(st.floats(0.1, 10.0), min_size=3, max_size=12),
    s2=st.floats(0.01, 0.9),
)
def test_zroot_matches_algebraic_root(xs, s2):
    # root of the estimating equation in closed form: 1/(mean - s2)
    mean = sum(xs) / len(xs)
    if mean - s2 < 0.05:
        return
    family = ExponentialRate()
    sample = [gamma_measure(x, s2) for x in xs]
    res = fit(family, sample, method="zroot", compute_sandwich=False)
    assert res.estimate == pytest.approx(1.0 / (mean - s2), abs=1e-8)
