import math

import numpy as np
import pytest

from measurefit import (
    DiracAtom,
    ExpGammaSpec,
    NormalNormalSpec,
    StudyConfig,
    TailScenarioSpec,
    replicate,
    score_mean_at_limit,
    simulate_scenario,
    verify_m_matrix,
)
from measurefit.measure import WeightedDensity


def test_simulate_degenerate_expert_gives_atoms():
    measures = simulate_scenario(ExpGammaSpec(0.5, 0.0), 20, seed=1)
    assert all(isinstance(m.components[0], DiracAtom) for m in measures)


def test_simulate_gamma_kernels_centered_on_draws():
    measures = simulate_scenario(ExpGammaSpec(0.5, 0.25), 20, seed=1)
    for m in measures:
        comp = m.components[0]
        assert isinstance(comp, WeightedDensity)
        assert comp.kernel.rate == pytest.approx(4.0)


def test_simulate_deterministic_in_seed():
    a = simulate_scenario(ExpGammaSpec(0.5, 0.5), 50, seed=9)
    b = simulate_scenario(ExpGammaSpec(0.5, 0.5), 50, seed=9)
    assert a == b
    c = simulate_scenario(ExpGammaSpec(0.5, 0.5), 50, seed=10)
    assert a != c


def test_simulate_exponential_moments():
    n = 10**5
    measures = simulate_scenario(ExpGammaSpec(0.5, 0.5), n, seed=4)
    centers = np.array([m.components[0].kernel.mean for m in measures])
    assert abs(centers.mean() - 2.0) < 4 * 2.0 / math.sqrt(n)


def test_replicate_deterministic():
    cfg = StudyConfig(scenario=ExpGammaSpec(0.5, 0.5), n=400, replications=30, seed=5)
    a = replicate(cfg)
    b = replicate(cfg)
    assert np.array_equal(a.estimates, b.estimates)
    assert a.coverage == b.coverage


def test_replicate_summary_sanity():
    cfg = StudyConfig(scenario=ExpGammaSpec(0.5, 0.5), n=500, replications=60, seed=6)
    s = replicate(cfg)
    assert s.limit == pytest.approx(2.0 / 3.0)
    assert abs(s.mean_estimate - s.limit) < 0.05
    assert 0.8 <= s.coverage <= 1.0
    assert s.n_failures == 0
    assert s.mse_vs_limit < s.mse_vs_true  # the bias dominates at this size
    assert abs(s.score_mean) < 6 * s.score_se


def test_replicate_variance_scales_inversely_with_n():
    spec = ExpGammaSpec(0.5, 0.5)
    small = replicate(StudyConfig(scenario=spec, n=1000, replications=400, seed=21))
    large = replicate(StudyConfig(scenario=spec, n=2000, replications=400, seed=22))
    ratio = large.var_estimate / small.var_estimate
    assert 0.35 < ratio < 0.70


def test_replicate_scaled_variance_approaches_analytic():
    from measurefit import eg_characteristics

    spec = ExpGammaSpec(0.5, 0.5)
    target = eg_characteristics(spec).variance
    s = replicate(StudyConfig(scenario=spec, n=10000, replications=250, seed=33))
    ratio = 10000 * s.var_estimate / target
    assert 0.8 < ratio < 1.2


def test_replicate_normal_scenario():
    spec = NormalNormalSpec(2.0, 1.0, noise_mean=0.1, noise_sd=0.3, expert_sd=0.7)
    s = replicate(StudyConfig(scenario=spec, n=400, replications=40, seed=8))
    assert s.limit == pytest.approx(2.1)
    assert abs(s.mean_estimate - 2.1) < 0.05


def test_replicate_tail_scenario_smoke():
    spec = TailScenarioSpec(k=20, sigma2=0.5, variant="A", tail_param=1.5,
                            censoring=1.5, noise_sd=0.1)
    s = replicate(StudyConfig(scenario=spec, n=150, replications=4, seed=3))
    assert s.limit is None and s.coverage is None
    assert np.all(s.estimates > 0)
    assert s.true_value == pytest.approx(1.5)


def test_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(scenario=ExpGammaSpec(0.5, 0.5), n=1, replications=5, seed=0)
    with pytest.raises(ValueError):
        StudyConfig(scenario=ExpGammaSpec(0.5, 0.5), n=10, replications=0, seed=0)
    with pytest.raises(ValueError):
        StudyConfig(scenario=ExpGammaSpec(0.5, 0.5), n=10, replications=5, seed=0,
                    ci_level=1.2)
    with pytest.raises(ValueError, match="unknown fit method 'newton'"):
        StudyConfig(scenario=ExpGammaSpec(0.5, 0.5), n=50, replications=3, seed=1,
                    method="newton")


def test_score_centered_at_limit_both_scenarios():
    for spec in (
        ExpGammaSpec(0.5, 0.5),
        NormalNormalSpec(2.0, 1.0, noise_mean=0.1, noise_sd=0.3, expert_sd=0.7),
    ):
        mean, se = score_mean_at_limit(spec, draws=30000, seed=14)
        assert abs(mean) < 4 * se


def test_score_check_rejects_tail_scenario():
    with pytest.raises(ValueError):
        score_mean_at_limit(TailScenarioSpec(), draws=100, seed=0)


@pytest.mark.parametrize("draws", [0, 1])
@pytest.mark.parametrize("check", [score_mean_at_limit, verify_m_matrix])
def test_score_checks_need_two_draws(check, draws):
    # one draw has no standard error: a ValueError, not a RuntimeWarning and a NaN
    with pytest.raises(ValueError, match="draws must be at least 2"):
        check(ExpGammaSpec(0.5, 0.5), draws=draws, seed=0)


def test_slope_check_classical_information():
    # degenerate expert: slope magnitude is the classical 1/rate^2 at the truth
    chk = verify_m_matrix(ExpGammaSpec(0.5, 0.0), draws=200000, seed=2)
    assert abs(chk.slope) == pytest.approx(4.0, rel=1e-6)


def test_slope_check_discriminates_candidates():
    chk = verify_m_matrix(ExpGammaSpec(0.5, 0.5), draws=400000, seed=2)
    assert chk.conclusive
    assert chk.magnitude_matches == {"confirmed": True, "variant": False}
    assert chk.sign > 0


def test_slope_check_normal_scenario():
    spec = NormalNormalSpec(1.0, 1.0, expert_sd=2.0)
    chk = verify_m_matrix(spec, draws=50000, seed=2)
    assert chk.slope == pytest.approx(1.0 / 5.0, rel=1e-9)
    assert chk.magnitude_matches["confirmed"]


def test_slope_check_validates_step():
    with pytest.raises(ValueError):
        verify_m_matrix(ExpGammaSpec(0.5, 0.5), step=0.0, draws=100, seed=0)
