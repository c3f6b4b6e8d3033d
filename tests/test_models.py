import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sci_integrate

from measurefit import (
    ExponentialRate,
    NormalLocation,
    ParameterDomainError,
    ParetoTail,
    SupportError,
    parse_family,
)


def test_density_worked_values(exp_family, normal_family, pareto_family):
    assert pareto_family.density(1.0, 2.0) == pytest.approx(0.25)
    assert exp_family.density(1.0, 0.0) == pytest.approx(1.0)
    assert normal_family.density(0.0, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi))


def test_density_zero_outside_support(exp_family, pareto_family):
    assert exp_family.density(1.0, -0.5) == 0.0
    assert pareto_family.density(1.0, 0.5) == 0.0


@pytest.mark.parametrize(
    "family,c,lo,hi",
    [
        (ExponentialRate(), 0.7, 0.0, 200.0),
        (ExponentialRate(), 3.0, 0.0, 60.0),
        (NormalLocation(1.5), -2.0, -60.0, 60.0),
        (ParetoTail(2.0), 1.3, 2.0, np.inf),
        (ParetoTail(1.0), 0.4, 1.0, np.inf),
    ],
)
def test_density_normalizes(family, c, lo, hi):
    # independent oracle: scipy adaptive quadrature
    value, _ = sci_integrate.quad(lambda x: family.density(c, x), lo, hi)
    assert value == pytest.approx(1.0, abs=1e-8)


def test_survival_worked_values(exp_family, pareto_family):
    assert pareto_family.survival(2.0, 1.0) == pytest.approx(1.0)
    assert pareto_family.survival(2.0, 2.0) == pytest.approx(0.25)
    assert exp_family.survival(2.0, 1.0) == pytest.approx(math.exp(-2.0))


def test_survival_is_one_below_support(exp_family, pareto_family):
    assert exp_family.survival(1.0, -3.0) == 1.0
    assert pareto_family.survival(1.0, 0.2) == 1.0


@pytest.mark.parametrize(
    "family,c,xs",
    [
        (ExponentialRate(), 1.2, np.linspace(0.0, 8.0, 50)),
        (NormalLocation(0.7), 0.3, np.linspace(-4.0, 4.0, 50)),
        (ParetoTail(1.5), 2.0, np.linspace(1.5, 30.0, 50)),
    ],
)
def test_survival_nonincreasing(family, c, xs):
    values = family.survival(c, xs)
    assert np.all(np.diff(values) <= 1e-15)


def test_grad_worked_values(exp_family, normal_family, pareto_family):
    assert exp_family.log_density_grad(1.0, 1.0) == pytest.approx(0.0)
    assert pareto_family.log_density_grad(1.0, 1.0) == pytest.approx(1.0)
    assert normal_family.log_density_grad(3.0, 3.0) == pytest.approx(0.0)


@settings(max_examples=60, deadline=None)
@given(c=st.floats(0.2, 5.0), x=st.floats(0.05, 12.0))
def test_exp_grad_matches_finite_differences(c, x):
    family = ExponentialRate()
    h = 1e-6 * max(abs(c), 1.0)
    fd = (math.log(family.density(c + h, x)) - math.log(family.density(c - h, x))) / (2 * h)
    grad = family.log_density_grad(c, x)
    assert grad == pytest.approx(fd, rel=1e-6, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(c=st.floats(0.2, 4.0), x=st.floats(1.05, 40.0))
def test_pareto_grad_matches_finite_differences(c, x):
    family = ParetoTail(1.0)
    h = 1e-6 * max(abs(c), 1.0)
    fd = (math.log(family.density(c + h, x)) - math.log(family.density(c - h, x))) / (2 * h)
    assert family.log_density_grad(c, x) == pytest.approx(fd, rel=1e-6, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(c=st.floats(-3.0, 3.0), x=st.floats(-5.0, 5.0))
def test_normal_grad_matches_finite_differences(c, x):
    family = NormalLocation(1.3)
    h = 1e-6 * max(abs(c), 1.0)
    fd = (math.log(family.density(c + h, x)) - math.log(family.density(c - h, x))) / (2 * h)
    assert family.log_density_grad(c, x) == pytest.approx(fd, rel=1e-6, abs=1e-6)


@settings(max_examples=90, deadline=None)
@given(
    family=st.sampled_from([ExponentialRate(), ParetoTail(1.5), NormalLocation(1.3)]),
    c=st.floats(0.2, 5.0),
    offset=st.floats(-1.0, 12.0),
)
def test_second_derivatives_match_differences_of_first(family, c, offset):
    # S'' of survival_terms against central differences of its S', and the
    # score derivative against differences of the score, on the family's
    # parameter scale; points below a support edge have constant survival
    if isinstance(family, NormalLocation):
        x, h = c - 6.0 + offset, 1e-5 * family.sigma1
    else:
        x, h = family.support_lower + offset, 1e-5 * c
    fd = (family.survival_terms(c + h, x)[1] - family.survival_terms(c - h, x)[1]) / (2 * h)
    hess = family.survival_terms(c, x)[2]
    assert hess == pytest.approx(fd, rel=1e-6, abs=1e-9)
    # vectorized numpy exp may differ from the scalar one in the last bit
    pair = family.survival_terms(c, np.array([x, x]))[2].tolist()
    assert pair == pytest.approx([hess, hess], rel=1e-14)
    if offset >= 0:
        fd = (family.log_density_grad(c + h, x) - family.log_density_grad(c - h, x)) / (2 * h)
        assert family.log_density_hess(c) == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_parameter_domain_violations_raise(exp_family, pareto_family, normal_family):
    with pytest.raises(ParameterDomainError):
        exp_family.density(-1.0, 1.0)
    with pytest.raises(ParameterDomainError):
        pareto_family.survival(0.0, 2.0)
    with pytest.raises(ParameterDomainError):
        normal_family.density(math.inf, 0.0)


def test_grad_outside_support_raises(exp_family, pareto_family):
    with pytest.raises(SupportError):
        exp_family.log_density_grad(1.0, -1.0)
    with pytest.raises(SupportError):
        pareto_family.log_density_grad(1.0, 0.5)


def test_hyperparameter_validation():
    with pytest.raises(ValueError):
        NormalLocation(sigma1=-1.0)
    with pytest.raises(ValueError):
        ParetoTail(x0=0.0)


def test_parse_family_round_trip():
    for text, kind in [
        ("exp", ExponentialRate),
        ("normal(sigma1=2.5)", NormalLocation),
        ("pareto(x0=1.5)", ParetoTail),
    ]:
        family = parse_family(text)
        assert isinstance(family, kind)
        assert parse_family(family.spec_string()) == family


def test_parse_family_rejects_garbage():
    for text in ["weibull", "normal", "pareto(alpha=2)", "exp(rate=1)", ""]:
        with pytest.raises(ValueError):
            parse_family(text)


# ---------------------------------------------------------------------------
# node form against the scalar oracle


def _node_values(family, c, x):
    """Density, score and score slope at x from the node form, as a compiled rule reads them.

    The rule keeps t and folds the factor e^h into its weights; the slope is
    the complex-step derivative of the node score in c.
    """
    t, factor = family.node_form(np.array([x]))
    dens = factor * np.exp(family.node_log_density(c, t))
    step = 1e-20 * max(abs(c), 1.0)
    slope = family.node_score(complex(c, step), t).imag / step
    return float(dens[0]), float(family.node_score(c, t)[0]), float(slope[0])


@st.composite
def _family_c_x(draw):
    kind = draw(st.sampled_from(["pareto", "exp", "normal"]))
    if kind == "normal":
        family = NormalLocation(10.0 ** draw(st.floats(-4.0, 4.0)))
        c = draw(st.floats(*family.default_bracket()))
        # near the peak, where the density is not negligible, or anywhere in +-1e8
        x = draw(st.one_of(st.floats(-40.0, 40.0).map(lambda u: c + u * family.sigma1),
                           st.floats(-1e8, 1e8)))
        return family, c, x
    family = ParetoTail(10.0 ** draw(st.floats(-3.0, 3.0))) if kind == "pareto" else ExponentialRate()
    lo, hi = family.default_bracket()
    c = 10.0 ** draw(st.floats(math.log10(lo), math.log10(hi)))
    edge = family.support_lower
    # from the support edge to 1e8, log-uniform above it, or just below it
    above = st.floats(-20.0, 0.0).map(lambda u: max(edge, 1e8 * 10.0**u))
    below = st.floats(1e-9, 1.0).map(lambda u: edge - u * max(edge, 1.0))
    return family, c, draw(st.one_of(st.just(edge), above, below))


@settings(max_examples=400, deadline=None)
@given(case=_family_c_x())
def test_node_form_matches_the_scalar_density_score_and_slope(case):
    family, c, x = case
    dens, score, slope = _node_values(family, c, x)
    oracle = family.density(c, x)
    if x < family.support_lower:
        assert dens == 0.0 and oracle == 0.0
        return
    if oracle > 1e-250:
        assert dens == pytest.approx(oracle, rel=1e-12, abs=0.0)
    else:
        assert dens <= 1e-249
    assert score == pytest.approx(family.log_density_grad(c, x), rel=1e-12, abs=0.0)
    assert slope == pytest.approx(family.log_density_hess(c), rel=1e-12, abs=0.0)
