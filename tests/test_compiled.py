"""Differential tests: the compiled panel rule against adaptive ``integrate``.

Within one fit the sample is compiled once into a ``PanelRule``; every
value it returns must agree with per-measure adaptive integration, which
stays the oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from measurefit import (
    CdfRamp,
    ConstantTail,
    DiracAtom,
    ExponentialRate,
    GammaKernel,
    NormalKernel,
    NormalLocation,
    ParetoTail,
    QuadratureSpec,
    RandomMeasure,
    WeightedDensity,
    integrate,
    make_dirac,
    make_gamma_bridge,
    make_measurement_uncertainty,
    make_right_censoring,
    per_point_loglik,
    w_value,
    z_value,
)
from measurefit.estimator import _SampleEvaluator
from measurefit.measure import PanelRule
from measurefit.quadrature import DEFAULT_QUAD, QuadratureError


def assert_matches_oracle(family, measures, cs, quad=DEFAULT_QUAD, rule=None):
    """Compiled integrals agree with ``integrate`` within 10 rel_tol (abs_tol near 0)."""
    rule = rule or PanelRule(family, measures, quad)
    for c in cs:
        compiled = rule.integrals(c)
        oracle = np.array([integrate(family, c, m, quad) for m in measures])
        np.testing.assert_allclose(compiled, oracle, rtol=10 * quad.rel_tol,
                                   atol=10 * quad.abs_tol, err_msg=f"c = {c!r}")
    return rule


def bracket_points(family, inner):
    """The family's default bracket ends plus the given interior values."""
    lo, hi = family.default_bracket()
    return [lo, *inner, hi]


def test_atoms_and_constant_tails_are_exact():
    family = ParetoTail(x0=1.0)
    measures = [make_dirac(1.5), make_right_censoring(2.0, 0), make_dirac(0.5),
                RandomMeasure((ConstantTail(3.0, 0.25), DiracAtom(4.0))),
                RandomMeasure((ConstantTail(2.0, 0.0),))]
    rule = PanelRule(family, measures)
    assert rule.panels == 0
    for c in bracket_points(family, [0.3, 1.7, 20.0]):
        oracle = [integrate(family, c, m) for m in measures]
        assert rule.integrals(c).tolist() == pytest.approx(oracle, rel=1e-15, abs=0)


@settings(max_examples=25, deadline=None)
@given(
    variant=st.sampled_from(["A", "B"]),
    log_sigma2=st.floats(-12.0, 8.0),
    paid=st.floats(1.0, 30.0),
    excess=st.floats(0.0, 3.0),
    cs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
)
def test_restricted_gamma_bridges(variant, log_sigma2, paid, excess, cs):
    family = ParetoTail(x0=1.0)
    sigma2 = 10.0**log_sigma2
    measures = [
        make_gamma_bridge(paid, paid * (1.0 + excess), sigma2, variant),
        make_gamma_bridge(1.0 + 0.5 * paid, 2.0 + paid, sigma2, variant),
        make_dirac(paid),
        make_right_censoring(1.0 + paid, 0),
    ]
    assert_matches_oracle(family, measures, bracket_points(family, [10.0**e for e in cs]))


@pytest.mark.parametrize("sigma2", [1e-12, 1e-6, 1.0, 1e4, 1e8])
@pytest.mark.parametrize("variant", ["A", "B"])
def test_bridge_grid_across_the_bracket(sigma2, variant):
    family = ParetoTail(x0=1.0)
    measures = [make_gamma_bridge(w, w * z, sigma2, variant)
                for w, z in [(1.2, 1.0), (2.5, 1.7), (6.0, 3.0), (40.0, 1.1)]]
    assert_matches_oracle(family, measures, np.geomspace(1e-3, 1e3, 9))


@settings(max_examples=20, deadline=None)
@given(
    means=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4),
    log_sd=st.floats(-3.0, 1.0),
    weight=st.floats(0.1, 2.0),
    c=st.floats(-50.0, 50.0),
)
def test_normal_densities_under_normal_location(means, log_sd, weight, c):
    family = NormalLocation(sigma1=1.3)
    sd = 10.0**log_sd
    measures = [RandomMeasure((WeightedDensity(weight, NormalKernel(u, sd)),)) for u in means]
    measures.append(RandomMeasure((WeightedDensity(1.0, NormalKernel(0.5, sd), lower=0.2),
                                   DiracAtom(1.0))))
    assert_matches_oracle(family, measures, bracket_points(family, [c, 0.0]))


@pytest.mark.parametrize("family, kernels", [
    (ParetoTail(x0=1.0), [NormalKernel(1.5, 0.3), NormalKernel(3.0, 1.0),
                          GammaKernel(4.0, 2.0, shift=1.0)]),
    (ExponentialRate(), [GammaKernel(2.0, 1.5), GammaKernel(0.7, 0.2, shift=0.5),
                         NormalKernel(2.0, 0.5), NormalKernel(-3.0, 0.2)]),
    (NormalLocation(sigma1=1.0), [GammaKernel(3.0, 2.0, shift=-1.0)]),
])
def test_ramps_with_finite_cut(family, kernels):
    measures = [make_measurement_uncertainty(k, 0) for k in kernels]
    measures += [make_measurement_uncertainty(k, 1) for k in kernels]
    rule = assert_matches_oracle(family, measures, bracket_points(family, [0.05, 0.8, 3.0]))
    assert rule.panels > 0


def test_normal_location_ramps_are_exact():
    family = NormalLocation(sigma1=1.0)
    ramp = make_measurement_uncertainty(NormalKernel(1.0, 0.5), 0)
    density = make_measurement_uncertainty(NormalKernel(0.3, 0.5), 1)
    measures = [ramp, density, RandomMeasure((CdfRamp(NormalKernel(2.0, 1.0)), DiracAtom(0.0)))]
    rule = assert_matches_oracle(family, measures, bracket_points(family, [-2.0, 0.4, 7.0]))
    s = math.hypot(1.0, 0.5)
    for c in (-10.0, -2.0, 0.4):
        assert rule.integrals(c)[0] == pytest.approx(special.ndtr((c - 1.0) / s), rel=1e-14)
    # at c = -10 adaptive integration of the ramp cancels to about -7.8e-16
    # (true value 3.8e-23); the exact term keeps W and Z finite there
    evaluator = _SampleEvaluator(family, measures, DEFAULT_QUAD)
    assert np.isfinite(evaluator.w_values(-10.0)).all()
    assert np.isfinite(evaluator.z_values(-10.0)).all()


def test_repeated_measures_are_compiled_once():
    family = ParetoTail(x0=1.0)
    bridge = make_gamma_bridge(2.0, 3.0, 0.5)
    single = PanelRule(family, [bridge, make_dirac(1.5)])
    repeated = PanelRule(family, [bridge, make_dirac(1.5), bridge, bridge])
    assert repeated.panels == single.panels
    values = repeated.integrals(1.2)
    assert values[0] == values[2] == values[3] == single.integrals(1.2)[0]


def test_panels_refined_at_one_c_are_checked_again_at_another():
    # at sigma2 = 100 the initial knots miss the tolerance at several c; each
    # such c refines the panels further, and every value still matches
    family = ParetoTail(x0=1.0)
    measures = [make_gamma_bridge(w, w * z, 100.0, "A")
                for w, z in [(1.1, 1.0), (1.6, 2.5), (3.0, 1.3), (9.0, 4.0), (25.0, 1.05)]]
    rule = PanelRule(family, measures)
    sizes = [rule.panels]
    for c in (1e-3, 0.075, 8.66):
        assert_matches_oracle(family, measures, [c], rule=rule)
        sizes.append(rule.panels)
    assert sizes[1] > sizes[0] and sizes[-1] > sizes[1]
    assert_matches_oracle(family, measures, [1e-3, 0.5, 1e3], rule=rule)


def test_panels_that_stall_after_earlier_refinements_restart_from_compile_time():
    # the panels refined at c = -40 ... -10 stall at c = -5 ("error estimate
    # stalled at 1.8e-08"), where the compile-time panels converge; at
    # c = -35 it is ``integrate`` that stalls, so only the rule is evaluated
    family = NormalLocation(sigma1=1.3)
    measures = [RandomMeasure((WeightedDensity(1.0, NormalKernel(0.0, 1000.0)),))]
    rule = PanelRule(family, measures)
    for c in range(-40, -9, 5):
        assert np.isfinite(rule.integrals(c)).all()
    fresh = PanelRule(family, measures)
    assert rule.integrals(-5.0)[0] == fresh.integrals(-5.0)[0]
    assert rule.panels == fresh.panels
    assert_matches_oracle(family, measures, [-5.0, 0.0, 5.0], rule=rule)


def test_subdivision_budget_exhaustion_still_raises():
    family = ParetoTail(x0=1.0)
    measures = [make_dirac(2.0), make_gamma_bridge(1.1, 1.1, 100.0, "A")]
    quad = QuadratureSpec(max_subdivisions=1)
    rule = PanelRule(family, measures, quad)
    with pytest.raises(QuadratureError, match="subdivisions") as compiled:
        rule.integrals(0.075)
    with pytest.raises(QuadratureError) as oracle:
        integrate(family, 0.075, measures[1], quad)
    assert str(compiled.value) == str(oracle.value)


def test_zero_integral_gives_infinite_loss():
    family = ParetoTail(x0=1.0)
    below = RandomMeasure((WeightedDensity(1.0, NormalKernel(0.1, 0.01)),))
    sample = [below, make_dirac(0.5), make_gamma_bridge(2.0, 3.0, 0.5)]
    terms = per_point_loglik(family, 1.5, sample)
    assert terms[0] == -math.inf and terms[1] == -math.inf
    assert terms[2] == pytest.approx(math.log(integrate(family, 1.5, sample[2])), rel=1e-12)


def test_evaluator_compiles_only_without_a_closed_form():
    family = ExponentialRate()
    closed = [RandomMeasure((WeightedDensity(1.0, GammaKernel(2.0 + i, 1.0)),)) for i in range(3)]
    evaluator = _SampleEvaluator(family, closed, DEFAULT_QUAD)
    evaluator.w_values(0.7)
    assert evaluator._rule is None
    mixed = closed + [make_right_censoring(1.5, 0)]
    evaluator = _SampleEvaluator(family, mixed, DEFAULT_QUAD)
    w = evaluator.w_values(0.7)
    assert evaluator._rule is not None
    oracle = [-math.log(integrate(family, 0.7, m)) for m in mixed]
    assert w.tolist() == pytest.approx(oracle, rel=1e-12)


# ---------------------------------------------------------------------------
# exact gradients: Z = -I'/I read off the panels accepted for I


def _z_sample(family, sigma2):
    """Atoms, a constant tail, densities, ramps and A/B bridges for one family."""
    if isinstance(family, ParetoTail):
        kernels = [GammaKernel(4.0, 2.0, shift=1.0), NormalKernel(3.0, 0.4)]
    elif isinstance(family, ExponentialRate):
        kernels = [GammaKernel(3.0, 2.0), GammaKernel(0.7, 0.2, shift=0.5),
                   NormalKernel(2.0, 0.5)]
    else:  # normal ramps have no finite cut and take the exact Phi term
        kernels = [NormalKernel(1.2, 0.3), GammaKernel(3.0, 2.0, shift=-1.0),
                   NormalKernel(-0.5, 2.0)]
    measures = [make_dirac(2.2), make_right_censoring(1.6, 0),
                RandomMeasure((WeightedDensity(0.7, kernels[0], lower=1.9), DiracAtom(2.5)))]
    measures += [make_measurement_uncertainty(k, i) for k in kernels for i in (0, 1)]
    measures += [make_gamma_bridge(w, w * z, sigma2, v)
                 for v in "AB" for w, z in [(1.5, 1.7), (6.0, 1.0)]]
    return measures


@pytest.mark.parametrize("family, cs", [
    (ParetoTail(x0=1.0), np.geomspace(1e-3, 1e3, 13)),
    (ExponentialRate(), np.geomspace(1e-3, 1e3, 13)),
    (NormalLocation(sigma1=1.0), [-1e3, *np.linspace(-20.0, 20.0, 9), 1e3]),
])
@pytest.mark.parametrize("sigma2", [1e-8, 1e-4, 1.0, 1e4, 1e8])
def test_rule_z_matches_differences_of_w(family, cs, sigma2):
    # acceptance 07's step and bound, on every measure whose integral is in
    # the range where the quadrature tolerance is relative (I >= abs/rel tol)
    measures = _z_sample(family, sigma2)
    rule = PanelRule(family, measures)
    compared = np.zeros(len(measures), dtype=int)
    for c in map(float, cs):
        values, grads = rule.integrals_with_grad(c)
        h = 3e-6 * max(abs(c), 1.0)
        for i, m in enumerate(measures):
            if values[i] < DEFAULT_QUAD.abs_tol / DEFAULT_QUAD.rel_tol:
                continue
            z = -grads[i] / values[i]
            w_minus, w_plus = w_value(family, c - h, m), w_value(family, c + h, m)
            fd = (w_plus - w_minus) / (2 * h)
            # W near 0 carries rounding of order eps, which the difference divides by h
            rounding = 1e-15 * max(1.0, abs(w_plus)) / h
            assert abs(z - fd) <= 1e-5 * max(abs(fd), 1e-8) + rounding, (i, c, z, fd)
            compared[i] += 1
    assert (compared > 0).all()


@pytest.mark.parametrize("family, measures, cs", [
    (ExponentialRate(),
     [RandomMeasure((WeightedDensity(w, GammaKernel(x / s2, 1.0 / s2, shift=shift)),))
      for x, w in [(0.3, 1.0), (2.5, 0.4), (7.0, 1.0)] for shift in (0.0, 0.4)
      for s2 in (1e-8, 1e-4, 1e-2, 0.25)],
     np.geomspace(1e-3, 1e3, 13)),
    (NormalLocation(sigma1=1.3),
     [RandomMeasure((WeightedDensity(w, NormalKernel(u, sd)),))
      for u, w in [(-3.0, 1.0), (0.5, 0.4), (4.0, 1.0)] for sd in (1e-4, 1e-2, 0.3, 1.0, 10.0)],
     np.linspace(-40.0, 40.0, 17)),
])
def test_rule_z_matches_closed_form_profiles(family, measures, cs):
    closed = _SampleEvaluator(family, measures, DEFAULT_QUAD)
    # one right-censoring tail moves the whole sample onto the panel rule
    compiled = _SampleEvaluator(family, measures + [make_right_censoring(1.0, 0)], DEFAULT_QUAD)
    assert closed._profile is not None and compiled._profile is None
    compared = 0
    for c in map(float, cs):
        values, grads = compiled._compiled().integrals_with_grad(c)
        keep = values[:-1] >= DEFAULT_QUAD.abs_tol / DEFAULT_QUAD.rel_tol
        exact = closed.z_values(c)[keep]
        z = -grads[:-1][keep] / values[:-1][keep]
        np.testing.assert_allclose(z, exact, rtol=1e-7, atol=1e-15, err_msg=f"c = {c}")
        compared += keep.sum()
    assert compared >= len(measures)


def test_z_values_on_a_compiled_sample_make_no_integrate_call(monkeypatch):
    def no_integrate(*args, **kwargs):
        raise AssertionError("integrate called on the compiled path")

    pareto = ParetoTail(x0=1.0)
    bridges = [make_gamma_bridge(w, w * z, 0.5, v) for v in "AB" for w, z in [(1.5, 1.7), (6.0, 1.0)]]
    normal = NormalLocation(sigma1=1.0)
    ramps = [make_measurement_uncertainty(NormalKernel(u, 0.5), s)
             for u in (0.2, 1.0, 2.5) for s in (0, 1)]
    cases = [(pareto, bridges + [make_dirac(1.5), make_right_censoring(2.0, 0)], (0.3, 1.7)),
             (normal, ramps, (-1.0, 0.4, 3.0))]
    expected = [[[z_value(f, c, m) for m in ms] for c in cs] for f, ms, cs in cases]
    monkeypatch.setattr("measurefit.measure.integrate", no_integrate)
    monkeypatch.setattr("measurefit.estimator.integrate", no_integrate)
    for (family, measures, cs), want in zip(cases, expected):
        evaluator = _SampleEvaluator(family, measures, DEFAULT_QUAD)
        for c, z_want in zip(cs, want):
            assert np.isfinite(evaluator.w_values(c)).all()
            assert evaluator.z_values(c).tolist() == pytest.approx(z_want, rel=1e-9)
