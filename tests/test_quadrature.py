import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measurefit.quadrature import (
    QUANTILE_LADDER,
    QuadratureError,
    QuadratureSpec,
    domain_knots,
    integrate_panels,
)


def test_sine_integral():
    value = integrate_panels(np.sin, [0.0, math.pi])
    assert value == pytest.approx(2.0, rel=1e-12)


def test_gaussian_mass():
    f = lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
    value = integrate_panels(f, domain_knots(-40.0, 40.0)[0])
    assert value == pytest.approx(1.0, rel=1e-12)


def test_narrow_spike_against_wide_domain():
    # mass concentrated in 1e-4 of the domain; knots must resolve it
    f = lambda x: np.exp(-0.5 * ((x - 1.0005) / 1e-4) ** 2) / (1e-4 * math.sqrt(2 * math.pi))
    quantiles = lambda q: 1.0005 + 1e-4 * np.sqrt(2) * np.asarray(
        [math.erf(2 * qq - 1) for qq in np.atleast_1d(q)]
    )  # crude but monotone map into the spike region
    value = integrate_panels(f, domain_knots(1.0, 1e4, quantiles(QUANTILE_LADDER))[0])
    assert value == pytest.approx(1.0, rel=1e-6)


def test_budget_exhaustion_raises():
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300, max_subdivisions=1)
    f = lambda x: np.exp(-0.5 * ((x - 0.37) / 1e-3) ** 2)
    with pytest.raises(QuadratureError):
        integrate_panels(f, [0.0, 1.0], spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)
    with pytest.raises(ValueError):
        QuadratureSpec(tail_mass=1.5)


def test_domain_knots_sorted_within_range():
    knots = domain_knots(2.0, 3.0, (lambda q: 2.0 + np.asarray(q))(QUANTILE_LADDER))[0]
    assert knots[0] == 2.0 and knots[-1] == 3.0
    assert np.all(np.diff(knots) > 0)


@settings(max_examples=50, deadline=None)
@given(
    coeffs=st.tuples(*[st.floats(-5, 5) for _ in range(4)]),
    a=st.floats(-3, 1),
    width=st.floats(0.1, 5),
)
def test_cubic_polynomials_exact(coeffs, a, width):
    c0, c1, c2, c3 = coeffs
    b = a + width
    f = lambda x: c0 + c1 * x + c2 * x**2 + c3 * x**3
    antideriv = lambda x: c0 * x + c1 * x**2 / 2 + c2 * x**3 / 3 + c3 * x**4 / 4
    value = integrate_panels(f, [a, b])
    assert value == pytest.approx(antideriv(b) - antideriv(a), rel=1e-10, abs=1e-9)
