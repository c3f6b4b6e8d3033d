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
)
from measurefit.estimator import DEFAULT_CONFIG, _SampleEvaluator
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


def test_normal_location_ramps_fall_back_to_integrate():
    family = NormalLocation(sigma1=1.0)
    ramp = make_measurement_uncertainty(NormalKernel(1.0, 0.5), 0)
    density = make_measurement_uncertainty(NormalKernel(0.3, 0.5), 1)
    measures = [ramp, density, RandomMeasure((CdfRamp(NormalKernel(2.0, 1.0)), DiracAtom(0.0)))]
    rule = assert_matches_oracle(family, measures, bracket_points(family, [-2.0, 0.4, 7.0]))
    for c in (-2.0, 0.4):
        assert rule.integrals(c)[0] == integrate(family, c, ramp)


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
    evaluator = _SampleEvaluator(family, closed, DEFAULT_QUAD, DEFAULT_CONFIG)
    evaluator.w_values(0.7)
    assert evaluator._rule is None
    mixed = closed + [make_right_censoring(1.5, 0)]
    evaluator = _SampleEvaluator(family, mixed, DEFAULT_QUAD, DEFAULT_CONFIG)
    w = evaluator.w_values(0.7)
    assert evaluator._rule is not None
    oracle = [-math.log(integrate(family, 0.7, m)) for m in mixed]
    assert w.tolist() == pytest.approx(oracle, rel=1e-12)
