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
    RandomMeasure,
    WeightedDensity,
    integrate,
    lebesgue_density,
    make_dirac,
    make_gamma_bridge,
    make_measurement_uncertainty,
    make_right_censoring,
    total_mass,
)
from measurefit.measure import density_knots
from measurefit.quadrature import DEFAULT_QUAD, integrate_panels


# ---------------------------------------------------------------------------
# construction and invariants


def test_component_validation():
    with pytest.raises(ValueError):
        DiracAtom(math.inf)
    with pytest.raises(ValueError):
        WeightedDensity(-0.1, NormalKernel(0.0, 1.0))
    with pytest.raises(ValueError):
        ConstantTail(math.nan, 1.0)
    with pytest.raises(ValueError):
        ConstantTail(0.0, -1.0)
    with pytest.raises(ValueError):
        GammaKernel(0.0, 1.0)


def test_measure_needs_components():
    with pytest.raises(ValueError):
        RandomMeasure(())


def test_make_dirac(exp_family):
    measure = make_dirac(2.0)
    assert measure.components == (DiracAtom(2.0),)
    assert integrate(exp_family, 1.0, measure) == pytest.approx(math.exp(-2.0))
    assert total_mass(measure) == 1.0
    with pytest.raises(ValueError):
        make_dirac(math.inf)


def test_make_right_censoring(exp_family):
    observed = make_right_censoring(1.0, 1)
    assert observed.components == (DiracAtom(1.0),)
    censored = make_right_censoring(1.0, 0)
    assert integrate(exp_family, 2.0, censored) == pytest.approx(math.exp(-2.0))
    assert total_mass(censored) == math.inf
    with pytest.raises(ValueError):
        make_right_censoring(1.0, 2)


def test_measurement_uncertainty_density(exp_family):
    # gaussian kernel against the exponential: closed form exp(-mu + s^2/2)
    measure = make_measurement_uncertainty(NormalKernel(1.0, 0.2), 1)
    value = integrate(exp_family, 1.0, measure)
    assert value == pytest.approx(math.exp(-1.0 + 0.02), rel=1e-5)


def test_measurement_uncertainty_degenerate_kernel(exp_family):
    # vanishing spread recovers the density at the kernel center
    measure = make_measurement_uncertainty(NormalKernel(1.0, 1e-7), 1)
    value = integrate(exp_family, 1.0, measure)
    assert value == pytest.approx(exp_family.density(1.0, 1.0), rel=1e-6)


def test_measurement_uncertainty_ramp(exp_family):
    measure = make_measurement_uncertainty(NormalKernel(1.0, 0.2), 0)
    assert total_mass(measure) == math.inf
    # oracle: direct quadrature of f * G done with an independent rule
    from scipy import integrate as sci

    kernel = NormalKernel(1.0, 0.2)
    oracle, _ = sci.quad(lambda x: 2.0 * math.exp(-2.0 * x) * kernel.cdf(x), 0, 60)
    assert integrate(exp_family, 2.0, measure) == pytest.approx(oracle, rel=1e-8)


def test_gamma_bridge_parametrization():
    measure = make_gamma_bridge(1.0, 3.0, 0.25, "A")
    tail, dens = measure.components
    assert isinstance(tail, ConstantTail) and tail.height == 0.25 and tail.lower == 1.0
    assert dens.kernel.shape == pytest.approx(12.0)
    assert dens.kernel.rate == pytest.approx(4.0)
    assert dens.kernel.shift == pytest.approx(0.0)
    assert dens.lower == 1.0

    variant_b = make_gamma_bridge(1.0, 3.0, 0.25, "B")
    kernel_b = variant_b.components[1].kernel
    assert kernel_b.shape == pytest.approx(12.0)  # ultimate / sigma2
    assert kernel_b.shift == 0.0

    with pytest.raises(ValueError):
        make_gamma_bridge(2.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        make_gamma_bridge(1.0, 3.0, 0.0)
    with pytest.raises(ValueError):
        make_gamma_bridge(1.0, 3.0, 0.5, "C")


def test_gamma_bridge_height_saturates():
    assert make_gamma_bridge(1.0, 2.0, 7.0).components[0].height == 1.0


@pytest.mark.parametrize("variant", ["A", "B"])
def test_gamma_bridge_endpoint_limits(pareto_family, variant):
    paid, ultimate, c = 2.0, 3.0, 1.5
    tight = integrate(pareto_family, c, make_gamma_bridge(paid, ultimate, 1e-8, variant))
    target = pareto_family.density(c, ultimate)
    assert abs(tight - target) / target < 1e-3

    wide = integrate(pareto_family, c, make_gamma_bridge(paid, ultimate, 1e8, variant))
    target = pareto_family.survival(c, paid)
    assert abs(wide - target) / target < 1e-3


def test_integrate_exp_gamma_closed_form(exp_family):
    # mean-one gamma with unit variance scale: value c (1 + s2 c)^(-x/s2)
    measure = RandomMeasure((WeightedDensity(1.0, GammaKernel(1.0, 1.0)),))
    assert integrate(exp_family, 1.0, measure) == pytest.approx(0.5, rel=1e-9)


def test_integrate_pareto_constant_tail(pareto_family):
    measure = RandomMeasure((ConstantTail(2.0, 1.0),))
    assert integrate(pareto_family, 1.0, measure) == pytest.approx(0.5)


def test_integrate_resolves_the_family_peak_under_a_wide_normal_kernel():
    # the family's peak at c sits inside one 674-wide kernel panel; without
    # knots around c the rule stalled (c = -35) or missed the peak (c = -60)
    family = NormalLocation(sigma1=1.3)
    measure = RandomMeasure((WeightedDensity(1.0, NormalKernel(0.0, 1000.0)),))
    s = math.hypot(1.3, 1000.0)
    for c in np.linspace(-60.0, 60.0, 241):
        exact = math.exp(-0.5 * (c / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
        assert integrate(family, c, measure) == pytest.approx(exact, rel=1e-9), c


@pytest.mark.parametrize("family, comp, c", [
    # a claims bridge's density component: the Pareto family has no peak knots
    (ParetoTail(1.0), make_gamma_bridge(2.0, 30.0, 0.5, "A").components[1], 1.3),
    # the normal family's peak knots at c fall inside the wide kernel's panels
    (NormalLocation(1.3), WeightedDensity(1.0, NormalKernel(0.0, 1000.0)), -35.0),
])
def test_integrate_equals_integrate_panels_on_the_same_knots(family, comp, c):
    # integrate skips integrate_panels' sort where no peak knot falls inside;
    # the value must not move by a bit
    knots = density_knots(family, [comp], comp.kernel, DEFAULT_QUAD)[0]
    peak = family.peak_knots(c)
    inside = peak[(peak > knots[0]) & (peak < knots[-1])]
    assert bool(len(inside)) == isinstance(family, NormalLocation)
    f = lambda x: family.density(c, x) * comp.kernel.pdf(x)
    expected = comp.weight * integrate_panels(f, np.concatenate([knots, inside]))
    assert integrate(family, c, RandomMeasure((comp,))) == expected


def test_integrate_rejects_bad_parameter(exp_family):
    from measurefit import ParameterDomainError

    with pytest.raises(ParameterDomainError):
        integrate(exp_family, -1.0, make_dirac(1.0))


def test_total_mass_cases():
    assert total_mass(make_dirac(0.5)) == 1.0
    assert total_mass(RandomMeasure((WeightedDensity(1.0, NormalKernel(0, 1)),))) == 1.0
    assert total_mass(make_gamma_bridge(1.0, 2.0, 0.5)) == math.inf
    zero_tail = RandomMeasure((DiracAtom(1.0), ConstantTail(1.0, 0.0)))
    assert total_mass(zero_tail) == 1.0


def test_total_mass_of_restricted_kernel():
    kernel = NormalKernel(0.0, 1.0)
    measure = RandomMeasure((WeightedDensity(1.0, kernel, lower=0.0),))
    assert total_mass(measure) == pytest.approx(0.5)


def test_survival_equivalence_property(exp_family, pareto_family):
    # integral against a unit tail equals the analytic survival
    for family, points in [
        (exp_family, [0.3, 1.0, 4.2]),
        (pareto_family, [1.1, 2.5, 9.0]),
    ]:
        for w in points:
            value = integrate(family, 1.3, make_right_censoring(w, 0))
            assert abs(value - family.survival(1.3, w)) <= 1e-9 * value


@settings(max_examples=25, deadline=None)
@given(
    mean=st.floats(0.5, 4.0),
    sd=st.floats(0.05, 1.5),
    shape=st.floats(0.5, 20.0),
    rate=st.floats(0.2, 5.0),
    c=st.floats(0.2, 3.0),
)
def test_integrate_linear_in_components(mean, sd, shape, rate, c):
    family = ExponentialRate()
    comp_a = WeightedDensity(0.7, NormalKernel(mean, sd))
    comp_b = WeightedDensity(0.3, GammaKernel(shape, rate))
    combined = integrate(family, c, RandomMeasure((comp_a, comp_b)))
    separate = integrate(family, c, RandomMeasure((comp_a,))) + integrate(
        family, c, RandomMeasure((comp_b,))
    )
    assert combined == pytest.approx(separate, rel=1e-9, abs=1e-12)


def test_proper_measure_bounded_by_density_peak(normal_family):
    # mass-one measures cannot integrate above the density's maximum
    measure = RandomMeasure((WeightedDensity(1.0, NormalKernel(0.3, 0.4)),))
    value = integrate(normal_family, 0.0, measure)
    peak = normal_family.density(0.0, 0.0)
    assert 0.0 < value <= peak


def test_lebesgue_density_of_bridge():
    measure = make_gamma_bridge(1.0, 3.0, 0.25, "A")
    kernel = measure.components[1].kernel
    assert lebesgue_density(measure, 0.5) == 0.0
    x = 2.0
    expected = 0.25 + float(kernel.pdf(x))
    assert lebesgue_density(measure, x) == pytest.approx(expected)
