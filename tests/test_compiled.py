"""Differential tests: the compiled panel rule against adaptive ``integrate``.

Within one fit the sample is compiled once into a ``PanelRule``; every
value it returns must agree with per-measure adaptive integration, which
stays the oracle.
"""

import dataclasses
import gc
import math
import weakref

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
    KernelSample,
    NormalKernel,
    NormalLocation,
    ParetoTail,
    QuadratureSpec,
    RandomMeasure,
    WeightedDensity,
    fit,
    integrate,
    make_dirac,
    make_gamma_bridge,
    make_measurement_uncertainty,
    make_right_censoring,
    per_point_loglik,
    w_value,
    z_value,
)
from measurefit import measure
from measurefit.estimator import FitError, _SampleEvaluator
from measurefit.measure import PanelRule
from measurefit.quadrature import DEFAULT_QUAD, QuadratureError
from measurefit.tailstudy import build_bridge_sample, synthesize_claims


def _on_own_knots(fn):
    """``fn`` run with an empty panel memo, so that it computes its own knots, none a compile made."""
    def oracle(*args, **kwargs):
        memo, measure._PANEL_MEMO = measure._PANEL_MEMO, weakref.WeakKeyDictionary()
        try:
            return fn(*args, **kwargs)
        finally:
            measure._PANEL_MEMO = memo
    return oracle


# the oracle: adaptive integration, independent of every rule compiled before
integrate, w_value = _on_own_knots(integrate), _on_own_knots(w_value)


def hexes(*values):
    return [float(v).hex() for v in values]


def assert_matches_oracle(family, measures, cs, quad=DEFAULT_QUAD, rule=None):
    """Compiled integrals agree with ``integrate`` within 10 rel_tol (abs_tol near 0)."""
    rule = rule or PanelRule(family, measures, quad)
    for c in cs:
        compiled = rule.integrals(c)
        oracle = np.array([integrate(family, c, m, quad) for m in measures])
        np.testing.assert_allclose(compiled, oracle, rtol=10 * quad.rel_tol,
                                   atol=10 * quad.abs_tol, err_msg=f"c = {c!r}")
    return rule


def assert_flat_rows(panels):
    """The panels' node statistic and weights are C-contiguous float (rows x 31) arrays."""
    for values in (panels.t, panels.w):
        assert values.dtype == np.float64 and values.flags.c_contiguous
        assert values.shape == (len(panels.lo), 31)


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


@pytest.mark.parametrize("family, atom, components", [
    (ParetoTail(1.0), DiracAtom(0.5), (ConstantTail(2.0, 1.0),)),
    (ExponentialRate(), DiracAtom(-1.0), (ConstantTail(2.0, 0.5),)),
    (ParetoTail(1.0), DiracAtom(0.5), (WeightedDensity(1.0, GammaKernel(3.0, 2.0, 1.0)),)),
])
def test_an_atom_below_the_support_leaves_a_mixed_measure_unchanged(family, atom, components):
    # the atom adds zero density times a score read at the support bound;
    # at exp c = 1e3 the tail's I is 0, so Z is NaN with or without the atom
    with_atom = PanelRule(family, [RandomMeasure((atom, *components))])
    without = PanelRule(family, [RandomMeasure(components)])
    for c in (1e-3, 0.7, 3.0, 1e3):
        got = with_atom.integrals_with_hess(c) + with_atom.losses(c)
        want = without.integrals_with_hess(c) + without.losses(c)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w, err_msg=f"c = {c!r}")


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


_CLAIMS = synthesize_claims(200, 1.5, 1.0, 1.4938, 0.1, seed=7)


_CLAIMS_C = (1e-3, 0.075, 1.5, 8.66, 1e3)
_NORMAL_C = (-40.0, -6.0, -2.0, 0.4, 3.0, 40.0)
_REFINED_BRIDGES = [make_gamma_bridge(w, w * z, 100.0, "A")
                    for w, z in [(1.1, 1.0), (1.6, 2.5), (3.0, 1.3), (9.0, 4.0), (25.0, 1.05)]]
_GAMMA_COLUMNS = dict(shape=[0.5, 2.0, 30.0, 4.0], rate=[1.0, 3.0, 20.0, 0.5],
                      shift=[0.0, 1.5, 0.2, 2.0])


@pytest.mark.parametrize("family, measures, cs, refines", [
    *[(*build_bridge_sample(_CLAIMS, 20, s2, v), _CLAIMS_C, False)
      for v in "AB" for s2 in (1e-8, 1e-4, 1.0, 1e4, 1e8)],
    (ParetoTail(1.0), _REFINED_BRIDGES, _CLAIMS_C, True),
    (NormalLocation(1.0), [make_measurement_uncertainty(NormalKernel(u, 0.5), s)
                           for u, s in [(0.3, 1), (1.2, 0), (-0.4, 0), (2.0, 1)]], _NORMAL_C, False),
    (NormalLocation(1.42), [
        RandomMeasure((WeightedDensity(1.0, GammaKernel(0.8566118788090663, 0.2215712558191765,
                                                         -2.079533241030404)),)),
        RandomMeasure((CdfRamp(GammaKernel(2.0, 1.0, -1.0)),)),
        RandomMeasure((WeightedDensity(1.0, NormalKernel(0.0, 1000.0), lower=-3000.0),)),
        make_measurement_uncertainty(NormalKernel(0.5, 2.0), 0),
    ], _NORMAL_C, True),
    (ExponentialRate(), KernelSample("gamma", **_GAMMA_COLUMNS), (1e-3, 0.4, 3.0, 1e3), False),
    (ParetoTail(1.0), KernelSample("gamma", **_GAMMA_COLUMNS), _CLAIMS_C, False),
    (NormalLocation(0.7), KernelSample("normal", mean=[0.1, -3.0, 2.5], sd=[0.2, 1.0, 40.0]),
     _NORMAL_C, False),
    (ExponentialRate(), KernelSample("normal", mean=[3.0, 8.0], sd=[1.0, 0.5]),
     (1e-3, 0.4, 3.0), False),
    (ParetoTail(1.0), KernelSample("dirac", location=[1.5, 0.5, 7.0]), _CLAIMS_C, False),
    (ParetoTail(1.0), [RandomMeasure((DiracAtom(0.5), ConstantTail(2.0, 1.0))), make_dirac(0.5),
                       RandomMeasure((DiracAtom(0.5),
                                      WeightedDensity(1.0, GammaKernel(3.0, 2.0, 1.0))))],
     _CLAIMS_C, False),
])
def test_take_is_bit_identical_to_compiling_the_resample(family, measures, cs, refines):
    # the resample's rule comes from the base rule's compile-time terms, so it
    # gives a fresh compile's values bit for bit, also at c where the
    # resample's panels refine
    base = PanelRule(family, measures)
    rng = np.random.default_rng(len(measures))
    idx = np.append(rng.integers(0, len(measures), size=len(measures) + 2), 0)
    again = rng.integers(0, len(idx), size=len(idx))
    pairs = [(base.take(idx), PanelRule(family, [measures[i] for i in idx])),
             (base.take(idx).take(again), PanelRule(family, [measures[idx[j]] for j in again]))]
    sizes = [fresh.panels for _, fresh in pairs]
    for c in cs:
        for taken, fresh in pairs:
            for a, b in [(taken.losses(c), fresh.losses(c)),
                         (taken.integrals_with_hess(c), fresh.integrals_with_hess(c))]:
                assert [hexes(*v) for v in a] == [hexes(*v) for v in b], f"c = {c!r}"
    for rule in [base, *(r for pair in pairs for r in pair)]:
        assert_flat_rows(rule._panels)
    if refines:
        assert any(fresh.panels > n for (_, fresh), n in zip(pairs, sizes))


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
    # a rule evaluated at c = -40 ... -10 gives at c = -5 what a fresh rule
    # gives: the family's peak knots cut at those c serve them only, so no
    # panels refined there can stall at -5 where compile-time panels converge;
    # unrestricted, the kernel would be a closed-form term with no panels
    family = NormalLocation(sigma1=1.3)
    measures = [RandomMeasure((WeightedDensity(1.0, NormalKernel(0.0, 1000.0), lower=-3000.0),))]
    rule = PanelRule(family, measures)
    assert rule.panels > 0
    for c in range(-40, -9, 5):
        assert np.isfinite(rule.integrals(c)).all()
    fresh = PanelRule(family, measures)
    assert rule.integrals(-5.0)[0] == fresh.integrals(-5.0)[0]
    assert rule.panels == fresh.panels
    assert_matches_oracle(family, measures, [-5.0, 0.0, 5.0], rule=rule)


def test_closed_form_term_of_a_wide_normal_kernel_holds_across_the_family_peak():
    # an unrestricted normal kernel under the normal location is a closed-form
    # term with no panels, exact wherever the family's peak sits; its
    # restricted twin below keeps the panels and carries the peak cut check
    family = NormalLocation(sigma1=1.3)
    measures = [RandomMeasure((WeightedDensity(1.0, NormalKernel(0.0, 1000.0)),))]
    s = math.hypot(1.3, 1000.0)
    rule = PanelRule(family, measures)
    assert rule.panels == 0
    for c in np.linspace(-60.0, 60.0, 241):
        exact = math.exp(-0.5 * (c / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
        for r in (rule, PanelRule(family, measures)):
            values, grads = r.integrals_with_grad(c)
            assert values[0] == pytest.approx(exact, rel=1e-9), c
            assert -grads[0] / values[0] == pytest.approx(c / s**2, rel=1e-7, abs=1e-15), c


def test_a_stall_from_refined_panels_restarts_from_compile_time(monkeypatch):
    # bisection resumed from panels refined at an earlier c is made to stall;
    # every refinement is dropped and the compile-time panels refined once
    # more, which gives a fresh rule's values bit for bit
    family = ParetoTail(x0=1.0)
    measures = [make_gamma_bridge(w, w * z, 100.0, "A")
                for w, z in [(1.1, 1.0), (1.6, 2.5), (3.0, 1.3), (9.0, 4.0), (25.0, 1.05)]]
    fresh = PanelRule(family, measures)
    want = fresh.losses(0.075) + fresh.integrals_with_hess(0.075)
    rule = PanelRule(family, measures)
    compile_time = rule.panels
    rule.integrals(1e-3)
    stop, resumed = measure.stop_rule, []

    def stall_when_resumed(*args):
        if rule.panels > compile_time:
            resumed.append(rule.panels)
            raise QuadratureError("error estimate stalled (simulated)")
        return stop(*args)

    monkeypatch.setattr(measure, "stop_rule", stall_when_resumed)
    got = rule.losses(0.075) + rule.integrals_with_hess(0.075)
    assert resumed
    assert [hexes(*v) for v in got] == [hexes(*v) for v in want]
    assert rule.panels == fresh.panels
    assert_matches_oracle(family, measures, [0.075], rule=rule)


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
    assert evaluator._rule.panels == 0  # closed-form terms, no quadrature
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


Z_FAMILIES = [
    (ParetoTail(x0=1.0), np.geomspace(1e-3, 1e3, 13)),
    (ExponentialRate(), np.geomspace(1e-3, 1e3, 13)),
    (NormalLocation(sigma1=1.0), [-1e3, *np.linspace(-20.0, 20.0, 9), 1e3]),
]
Z_SIGMA2 = [1e-8, 1e-4, 1.0, 1e4, 1e8]


@pytest.mark.parametrize("family, cs", Z_FAMILIES)
@pytest.mark.parametrize("sigma2", Z_SIGMA2)
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


CLOSED_FORM_SAMPLES = [
    (ExponentialRate(),
     [RandomMeasure((WeightedDensity(w, GammaKernel(x / s2, 1.0 / s2, shift=shift)),))
      for x, w in [(0.3, 1.0), (2.5, 0.4), (7.0, 1.0)] for shift in (0.0, 0.4)
      for s2 in (1e-8, 1e-4, 1e-2, 0.25)],
     np.geomspace(1e-3, 1e3, 13)),
    (NormalLocation(sigma1=1.3),
     [RandomMeasure((WeightedDensity(w, NormalKernel(u, sd)),))
      for u, w in [(-3.0, 1.0), (0.5, 0.4), (4.0, 1.0)] for sd in (1e-4, 1e-2, 0.3, 1.0, 10.0)],
     np.linspace(-40.0, 40.0, 17)),
]


def _on_panels(measure):
    """The one-term measure kept off its closed form.

    A density is restricted at or below its own support (at the gamma
    shift, far below a normal mean), which leaves its integral as it is but
    keeps it on panels; an atom beside a zero-height tail stays on the
    linear sums.
    """
    comp, = measure.components
    if isinstance(comp, DiracAtom):
        return RandomMeasure((comp, ConstantTail(comp.location, 0.0)))
    kernel = comp.kernel
    lower = kernel.shift if isinstance(kernel, GammaKernel) else kernel.mean - 1e3 * kernel.sd
    return RandomMeasure((WeightedDensity(comp.weight, kernel, lower=lower),))


@pytest.mark.parametrize("family, measures, cs", CLOSED_FORM_SAMPLES)
def test_rule_z_matches_closed_form_profiles(family, measures, cs):
    closed = _SampleEvaluator(family, measures, DEFAULT_QUAD)
    rule = PanelRule(family, [_on_panels(m) for m in measures])
    closed.w_values(float(cs[0]))
    assert closed._rule.panels == 0 and rule.panels >= len(measures)
    compared = 0
    for c in map(float, cs):
        values, grads = rule.integrals_with_grad(c)
        keep = values >= DEFAULT_QUAD.abs_tol / DEFAULT_QUAD.rel_tol
        exact = closed.z_values(c)[keep]
        z = -grads[keep] / values[keep]
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


# ---------------------------------------------------------------------------
# exact curvature: I'' read off the same panels, and Z' = Z^2 - I''/I


def _parameter_scale(family, c):
    """The scale the family's parameter moves on at c: sigma1 for a location, c for a rate."""
    return family.sigma1 if isinstance(family, NormalLocation) else c


@pytest.mark.parametrize("family, cs", Z_FAMILIES)
@pytest.mark.parametrize("sigma2", Z_SIGMA2)
def test_rule_hess_matches_differences_of_grad(family, cs, sigma2):
    # a 4-point difference of the rule's I' with a step of 1e-3 parameter
    # scales; its truncation and the quadrature noise it divides were seen
    # below 6e-11 of the bound's scale |I''| + I / scale^2
    measures = _z_sample(family, sigma2)
    rule = PanelRule(family, measures)
    compared = np.zeros(len(measures), dtype=int)
    for c in map(float, cs):
        scale = _parameter_scale(family, c)
        values, _, hess = rule.integrals_with_hess(c)
        h = 1e-3 * scale
        g = [rule.integrals_with_grad(c + k * h)[1] for k in (-2, -1, 1, 2)]
        fd = (g[0] - 8.0 * g[1] + 8.0 * g[2] - g[3]) / (12.0 * h)
        keep = values >= DEFAULT_QUAD.abs_tol / DEFAULT_QUAD.rel_tol
        bound = 1e-7 * (np.abs(fd) + values / scale**2)
        assert (np.abs(hess - fd) <= bound)[keep].all(), (c, np.flatnonzero(
            keep & (np.abs(hess - fd) > bound)))
        compared += keep
    assert (compared > 0).all()


@pytest.mark.parametrize("family, measures, cs", CLOSED_FORM_SAMPLES + [
    (ParetoTail(x0=1.0), [make_dirac(x) for x in (1.0, 1.2, 3.0, 40.0)],
     np.geomspace(1e-3, 1e2, 11)),
    (ExponentialRate(), [make_dirac(x) for x in (0.0, 0.2, 3.0, 40.0)],
     np.geomspace(1e-3, 10.0, 9)),
    (NormalLocation(sigma1=0.7), [make_dirac(x) for x in (-2.0, 0.2, 3.0)],
     np.linspace(-20.0, 20.0, 9)),
])
def test_rule_slope_matches_closed_form_profiles(family, measures, cs):
    # Z' = Z^2 - I''/I cancels terms of size Z^2, so the error is bounded
    # relative to |Z'| + Z^2; it was seen below 8e-12 of that
    closed = _SampleEvaluator(family, measures, DEFAULT_QUAD)
    compiled = _SampleEvaluator(family, [_on_panels(m) for m in measures], DEFAULT_QUAD)
    compared = 0
    for c in map(float, cs):
        _, z_exact, slope_exact = closed.terms(c)
        try:
            slope = compiled.terms(c)[2]
        except FitError:  # some integral underflows to 0 at this c
            continue
        values = compiled._rule.integrals(c)
        keep = values >= DEFAULT_QUAD.abs_tol / DEFAULT_QUAD.rel_tol
        np.testing.assert_array_less(
            np.abs(slope - slope_exact)[keep],
            1e-9 * (np.abs(slope_exact) + z_exact * z_exact)[keep] + 1e-300,
            err_msg=f"c = {c}")
        compared += keep.sum()
    densities = isinstance(measures[0].components[0], WeightedDensity)
    assert closed._rule.panels == 0 and (compiled._rule.panels > 0) == densities
    assert compared >= len(measures)


# ---------------------------------------------------------------------------
# closed-form terms: one path for every measure


@pytest.mark.parametrize("method", ["minimize", "zroot"])
@pytest.mark.parametrize("censored", [False, True])
def test_gamma_shape_far_below_one_fits_on_its_closed_form(method, censored):
    # the kernel pdf is singular at its shift, where panels stall ("error
    # estimate stalled at 1.375e-05"); its closed-form term needs no
    # quadrature, beside an atom and beside a censoring tail
    family = ExponentialRate()
    sample = [RandomMeasure((WeightedDensity(1, GammaKernel(0.003, 0.01)),)), make_dirac(0.5)]
    if censored:
        sample.append(make_right_censoring(1.0, 0))
    res = fit(family, sample, method=method)
    assert res.converged
    c = res.estimate
    w, z, _ = _SampleEvaluator(family, sample, DEFAULT_QUAD).terms(c)
    closed_w = [-math.log(c) + 0.003 * math.log1p(c / 0.01), 0.5 * c - math.log(c), c]
    closed_z = [0.003 / (0.01 + c) - 1.0 / c, 0.5 - 1.0 / c, 1.0]
    assert w.tolist() == pytest.approx(closed_w[:len(sample)], rel=1e-12, abs=1e-14)
    assert z.tolist() == pytest.approx(closed_z[:len(sample)], rel=1e-12, abs=1e-14)
    assert abs(z.sum()) <= 1e-9 * np.abs(z).sum()


@settings(max_examples=40, deadline=None)
@given(
    normal=st.booleans(),
    tail=st.booleans(),
    shape=st.floats(1.0, 200.0),
    log_scale=st.floats(-2.0, 1.0),
    center=st.floats(0.0, 2.0),
    weight=st.floats(0.1, 2.0),
    at=st.floats(0.0, 6.0),
    height=st.floats(0.1, 1.0),
    u=st.floats(0.0, 1.0),
)
def test_closed_form_terms_beside_an_atom_or_a_tail(normal, tail, shape, log_scale, center,
                                                    weight, at, height, u):
    # a measure that is not one closed-form term adds the term's e^-W to the
    # atom's density or the tail's survival term; gamma shapes >= 1 keep the
    # oracle's quadrature convergent
    scale = 10.0**log_scale
    if normal:
        family, c = NormalLocation(sigma1=1.3), -10.0 + 20.0 * u
        kernel = NormalKernel(center, scale)
    else:
        family, c = ExponentialRate(), 10.0 ** (-2.0 + 3.0 * u)
        kernel = GammaKernel(shape, 1.0 / scale, shift=center)
    partner = ConstantTail(at, height) if tail else DiracAtom(at)
    density = WeightedDensity(weight, kernel)
    measures = [RandomMeasure((density, partner)), RandomMeasure((partner, density))]
    rule = assert_matches_oracle(family, measures, [c])
    assert rule.panels == 0
    oracle = np.array([integrate(family, c, m) for m in measures])
    keep = oracle >= DEFAULT_QUAD.abs_tol / DEFAULT_QUAD.rel_tol
    evaluator = _SampleEvaluator(family, measures, DEFAULT_QUAD)
    w = evaluator.w_values(c)
    np.testing.assert_allclose(w[keep], -np.log(oracle[keep]), rtol=0,
                               atol=10 * DEFAULT_QUAD.rel_tol)
    if not keep.all():
        return
    # Z against differences of the oracle's W (acceptance 07's step and
    # bound), Z' against a 4-point difference of Z with a step of 1e-3
    # parameter scales, bounded like Z' in the closed-form slope test
    _, z, slope = evaluator.terms(c)
    h = 3e-6 * max(abs(c), 1.0)
    w_minus, w_plus = ([w_value(family, c + d, m) for m in measures] for d in (-h, h))
    fd = (np.array(w_plus) - np.array(w_minus)) / (2 * h)
    rounding = 1e-15 * np.maximum(1.0, np.abs(w_plus)) / h
    assert (np.abs(z - fd) <= 1e-5 * np.maximum(np.abs(fd), 1e-8) + rounding).all(), (z, fd)
    h = 1e-3 * _parameter_scale(family, c)
    zs = [evaluator.z_values(c + k * h) for k in (-2, -1, 1, 2)]
    fd = (zs[0] - 8.0 * zs[1] + 8.0 * zs[2] - zs[3]) / (12.0 * h)
    rounding = 1e-14 * np.maximum(1.0, np.abs(z)) / h
    assert (np.abs(slope - fd) <= 1e-7 * (np.abs(fd) + z * z) + rounding).all(), (slope, fd)


def test_rule_resolves_the_family_peak_under_a_wide_restricted_normal_kernel():
    # unrestricted, this kernel is a closed-form term; restricted far below
    # its mean it keeps the 674-wide panels whose Gauss nodes missed the
    # family's peak together or stalled, and the peak cut at each c serves
    # that c only
    family = NormalLocation(sigma1=1.3)
    measures = [RandomMeasure((WeightedDensity(1.0, NormalKernel(0.0, 1000.0), lower=-1e5),))]
    s = math.hypot(1.3, 1000.0)
    rule = PanelRule(family, measures)
    assert rule.panels > 0
    for c in np.linspace(-60.0, 60.0, 241):
        exact = math.exp(-0.5 * (c / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
        for r in (rule, PanelRule(family, measures)):
            values, grads = r.integrals_with_grad(c)
            assert values[0] == pytest.approx(exact, rel=1e-9), c
            assert -grads[0] / values[0] == pytest.approx(c / s**2, rel=1e-7, abs=1e-15), c
    assert rule.panels == PanelRule(family, measures).panels


def test_a_refinement_where_the_peak_cut_applies_keeps_the_cut(monkeypatch):
    # at one c of this grid a component fails its check on panels the family's
    # peak knots were cut into; the refined panels replace the rule's, the cut
    # included, and every value still matches the oracle
    family = NormalLocation(sigma1=1.42)
    kernel = GammaKernel(0.8566118788090663, 0.2215712558191765, -2.079533241030404)
    measures = [RandomMeasure((WeightedDensity(1.0, kernel),))]
    cut, joined, last_cut, on_cut = PanelRule._cut_at_peak, PanelRule._joined, [], []

    def spy_cut(self, c, panels):
        out = cut(self, c, panels)
        last_cut[:] = [len(out.lo) > len(panels.lo)]
        return out

    def spy_join(self, panels, keep, *args):
        if len(args) > 3:  # a refinement round
            on_cut.append(last_cut[0])
        return joined(self, panels, keep, *args)

    monkeypatch.setattr(PanelRule, "_cut_at_peak", spy_cut)
    monkeypatch.setattr(PanelRule, "_joined", spy_join)
    rule = assert_matches_oracle(family, measures, np.linspace(-40.0, 40.0, 81))
    assert any(on_cut)
    assert rule.panels > PanelRule(family, measures).panels
    assert_flat_rows(rule._panels)


def test_an_evaluation_that_refines_calls_the_family_density_at_atoms_only(monkeypatch):
    # refined panels are evaluated on the node path, by the same exp of the
    # node log density as the first check; the scalar density serves atoms
    family = ParetoTail(x0=1.0)
    measures = [make_dirac(2.0), *(make_gamma_bridge(w, w * z, 100.0, "A")
                                   for w, z in [(1.1, 1.0), (1.6, 2.5), (9.0, 4.0)])]
    rule = PanelRule(family, measures)
    sizes = [rule.panels]
    density, points = ParetoTail.density, []

    def spy(self, c, x):
        points.append(np.asarray(x).tolist())
        return density(self, c, x)

    monkeypatch.setattr(ParetoTail, "density", spy)
    for c in (1e-3, 0.075, 8.66):
        rule.losses(c)
        rule.integrals_with_hess(c)
        sizes.append(rule.panels)
    assert sizes[-1] > sizes[0]
    assert points and all(x in (2.0, [2.0]) for x in points)


def test_a_refinement_round_builds_two_rows_per_bisected_panel(monkeypatch):
    # only the halves of the bisected panels are built; the rows of the
    # panels kept, and of the components already accepted, are not rebuilt
    family = ParetoTail(x0=1.0)
    measures = [make_gamma_bridge(w, w * z, 100.0, "A")
                for w, z in [(1.1, 1.0), (1.6, 2.5), (3.0, 1.3), (9.0, 4.0), (25.0, 1.05)]]
    joined, node_rows, built, rounds = PanelRule._joined, PanelRule._node_rows, [], []

    def spy_rows(self, comp, lo, hi, *args):
        built.append(len(lo))
        return node_rows(self, comp, lo, hi, *args)

    def spy_join(self, panels, keep, *args):
        first = len(built)
        out = joined(self, panels, keep, *args)
        if len(args) > 3:  # a refinement round
            rounds.append((2 * np.count_nonzero(~keep), built[first:]))
        return out

    monkeypatch.setattr(PanelRule, "_node_rows", spy_rows)
    monkeypatch.setattr(PanelRule, "_joined", spy_join)
    rule = assert_matches_oracle(family, measures, (1e-3, 0.075, 8.66))
    assert len(rounds) > 1
    assert all(rows == [halves] for halves, rows in rounds)
    assert_flat_rows(rule._panels)


def assert_equals_one_measure_rules(family, measures, cs):
    """``losses`` and ``integrals_with_hess`` of a rule on the measures, at each c, as on each alone."""
    rule = PanelRule(family, measures)
    singles = [PanelRule(family, [m]) for m in measures]
    for c in cs:
        got = rule.losses(c) + rule.integrals_with_hess(c)
        for i, single in enumerate(singles):
            want = single.losses(c) + single.integrals_with_hess(c)
            assert [hexes(g[i]) for g in got] == [hexes(w[0]) for w in want], (c, i)
    return rule


def test_one_c_refines_components_of_two_kernel_groups_together(monkeypatch):
    # at c = 0.075 a restricted gamma density (a bridge at sigma2 = 100) and a
    # gamma CDF ramp both fail their check; one builder call makes the refined
    # rows of both kernel groups, each bit-identical to a one-measure rule's
    family = ParetoTail(x0=1.0)
    measures = [make_gamma_bridge(1.6, 4.0, 100.0, "A"),
                make_measurement_uncertainty(GammaKernel(0.05, 0.1, 3.0), 0)]
    joined, groups = PanelRule._joined, []

    def spy(self, panels, keep, comp, *args):
        if len(args) > 2:  # a refinement round: one builder call for every new row
            groups.append({self._kernels[k][0] for k in comp.tolist()})
        return joined(self, panels, keep, comp, *args)

    monkeypatch.setattr(PanelRule, "_joined", spy)
    sizes = PanelRule(family, measures).panels
    rule = assert_equals_one_measure_rules(family, measures, (1e-3, 0.075, 8.66))
    assert {(WeightedDensity, GammaKernel), (CdfRamp, GammaKernel)} in groups
    assert rule.panels > sizes
    assert_matches_oracle(family, measures, [0.075, 0.5], rule=rule)


def test_the_peak_cut_splits_panels_of_several_components_at_one_c(monkeypatch):
    # under the normal location every c cuts the family's peak knots into
    # wide panels of a restricted normal density, a restricted gamma density
    # and a gamma ramp at once; the cut rows come from one builder call and
    # every value equals that of a one-measure rule bit for bit
    family = NormalLocation(sigma1=1.3)
    measures = [RandomMeasure((WeightedDensity(1.0, NormalKernel(0.0, 1000.0), lower=-3000.0),)),
                RandomMeasure((WeightedDensity(1.0, GammaKernel(2.0, 0.01, -100.0), lower=-50.0),)),
                make_measurement_uncertainty(GammaKernel(3.0, 0.05, -20.0), 0)]
    cut, grown = PanelRule._cut_at_peak, []

    def spy(self, c, panels):
        out = cut(self, c, panels)
        assert_flat_rows(out)
        n = len(self._knots)
        grown.append(int((np.bincount(out.comp, minlength=n)
                          > np.bincount(panels.comp, minlength=n)).sum()))
        return out

    monkeypatch.setattr(PanelRule, "_cut_at_peak", spy)
    rule = assert_equals_one_measure_rules(family, measures, (-20.0, 0.0, 5.0))
    assert max(grown) == len(measures)  # the cut grew the panels of every component at once
    assert_matches_oracle(family, measures, [-5.0, 5.0], rule=rule)


def test_integrate_keeps_each_components_knots_for_a_later_compile(monkeypatch):
    # integrate computes a component's c-free knots once, in a knots-only
    # memo entry: three c make one ppf call per kernel; a rule compiled
    # afterwards computes no knots, adds its weights to those entries and
    # equals a fresh compile bit for bit; the entries die with the measures
    family = ParetoTail(x0=1.0)
    measures = [make_gamma_bridge(1.6, 4.0, 0.5, "A"),
                make_measurement_uncertainty(GammaKernel(3.0, 2.0, 1.0), 0)]
    ppf, asked = GammaKernel.ppf, []

    def counted(self, q):
        asked.append(self)
        return ppf(self, q)

    monkeypatch.setattr(GammaKernel, "ppf", counted)
    values = [measure.integrate(family, c, m) for c in (0.3, 1.5, 4.0) for m in measures]
    assert len(asked) == 2 and all(v > 0 for v in values)
    comps = [m.components[-1] for m in measures]
    knots = [_entry(family, comp).knots for comp in comps]
    assert all(_entry(family, comp).weights is None for comp in comps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PanelRule, "_group_knots", _no_entry)
        rule = PanelRule(family, measures)
    assert all(_entry(family, comp).knots is x for comp, x in zip(comps, knots))
    assert len(asked) == 2
    cs = [1e-3, 0.3, 1.5, 50.0]
    want = _outcomes(_compiled_fresh(family, measures), cs)
    for got, expected in zip(_outcomes(rule, cs), want):
        for g, w in zip(got, expected):
            np.testing.assert_array_equal(g, w)
    assert all(np.array_equal(_entry(family, comp).knots, x) for comp, x in zip(comps, knots))
    alive = [weakref.ref(comp) for comp in comps]
    del measures, comps, rule
    gc.collect()
    assert not any(ref() for ref in alive)
    assert len(measure._PANEL_MEMO) == 0


_MEMO_FAMILIES = [ParetoTail(1.0), ExponentialRate(), NormalLocation(1.3)]


def _memo_component(kind, shape, scale, at):
    """One component of a memo test measure; ``at`` sets a shift, bound or centre, 0.0 or -0.0 among them."""
    gamma = GammaKernel(shape, shape / (2.0 * scale), shift=at)
    normal = NormalKernel(at, scale)
    return {"atom": DiracAtom(2.0 + scale), "tail": ConstantTail(1.0 + at, 0.5),
            "gamma": WeightedDensity(0.7, gamma), "gamma_above": WeightedDensity(1.0, gamma, at),
            "normal": WeightedDensity(1.0, normal), "normal_above": WeightedDensity(0.4, normal, at),
            "gamma_ramp": CdfRamp(gamma), "normal_ramp": CdfRamp(normal)}[kind]


def _twin(obj):
    """An equal but distinct copy of a component, every zero field with its sign flipped."""
    values = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return type(obj)(**{name: _twin(v) if dataclasses.is_dataclass(v) else
                        -v if v == 0.0 else v for name, v in values.items()})


def _outcomes(rule, cs):
    """``losses`` and ``integrals_with_hess`` at each c in turn, or the error raised there."""
    out = []
    for c in cs:
        try:
            out.append(rule.losses(c) + rule.integrals_with_hess(c))
        except QuadratureError as exc:
            out.append(type(exc).__name__)
    return out


def _no_entry(*args):
    raise AssertionError("compiled a component the memo holds")


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(_MEMO_FAMILIES),
    specs=st.lists(st.lists(st.tuples(
        st.sampled_from(["atom", "tail", "gamma", "gamma_above", "normal", "normal_above",
                         "gamma_ramp", "normal_ramp"]),
        st.floats(1.5, 20.0), st.floats(0.3, 3.0), st.sampled_from([0.0, -0.0, 0.5, 1.5])),
        min_size=1, max_size=3), min_size=1, max_size=4),
    inner=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
)
def test_rules_read_from_the_memo_equal_a_fresh_compile(family, specs, inner):
    # the panel memo keys on the component, so a second rule on the same
    # measures, or on equal copies (a zero field of either sign), reads its
    # knots and weights from the first compile's entries, also after another
    # rule refined at the bracket ends; every value is bit-identical
    gc.collect()
    held = len(measure._PANEL_MEMO)
    measures = [RandomMeasure(tuple(_memo_component(*spec) for spec in comps)) for comps in specs]
    twins = [RandomMeasure(tuple(_twin(comp) for comp in m.components)) for m in measures]
    lo, hi = family.default_bracket()
    cs = [lo, *(lo + (hi - lo) * u**4 for u in inner), hi]
    first = _outcomes(PanelRule(family, measures), cs)
    refined = PanelRule(family, measures)
    _outcomes(refined, [lo, hi])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PanelRule, "_group_knots", _no_entry)
        served = [PanelRule(family, measures), PanelRule(family, twins)]
    for rule in served:
        for got, want in zip(_outcomes(rule, cs), first):
            assert type(got) is type(want), (got, want)
            if isinstance(want, str):
                assert got == want
            else:
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)
    entries = [entry for m in measures for comp in m.components
               for entry in measure._PANEL_MEMO.get(comp, {}).values()]
    assert not any(values.flags.writeable for entry in entries for values in entry)
    alive = [weakref.ref(comp) for m in measures + twins for comp in m.components]
    del measures, twins, refined, served
    gc.collect()
    assert not any(ref() for ref in alive)
    assert len(measure._PANEL_MEMO) == held


def _bulk_component(kind, shape, scale, at):
    """One component of a bulk-compile test measure; ``at`` sets a shift, bound or centre."""
    gamma = GammaKernel(shape, shape / scale, shift=at)  # mean at + scale, sd scale / sqrt(shape)
    normal = NormalKernel(at, scale)
    return {"gamma": WeightedDensity(0.7, gamma), "gamma_above": WeightedDensity(1.0, gamma, at + scale),
            "normal": WeightedDensity(1.0, normal), "normal_above": WeightedDensity(0.4, normal, at),
            "gamma_ramp": CdfRamp(gamma), "normal_ramp": CdfRamp(normal),
            "empty": WeightedDensity(1.0, gamma, at + 1e3 * scale),  # no mass left above the bound
            "zero": WeightedDensity(0.0, gamma), "atom": DiracAtom(2.0 + scale),
            "tail": ConstantTail(1.0 + scale, 0.5)}[kind]


def _compiled_fresh(family, measures):
    """``PanelRule(family, measures)`` with every component new to the panel memo."""
    measure._PANEL_MEMO.clear()
    return PanelRule(family, measures)


def _entry(family, comp):
    return measure._PANEL_MEMO.get(comp, {}).get((family, DEFAULT_QUAD))


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(_MEMO_FAMILIES),
    specs=st.lists(st.lists(st.tuples(
        st.sampled_from(["gamma", "gamma_above", "normal", "normal_above", "gamma_ramp",
                         "normal_ramp", "empty", "zero", "atom", "tail"]),
        st.sampled_from([1.5, 7.0, 900.0, 9.9e3, 1.01e4, 3e5, 1e7]), st.floats(0.3, 3.0),
        st.sampled_from([0.0, -0.0, 0.5, 1.5, -2.0])),
        min_size=1, max_size=3), min_size=1, max_size=5),
    inner=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
)
def test_a_rule_compiled_by_kernel_group_equals_one_measure_rules(family, specs, inner):
    # a rule on many measures compiles its new panel components by kernel
    # group, in one pass per group; every value of a measure, and every memo
    # entry, is bit-identical to what a rule on that measure alone, or on
    # that component alone, computes, whatever else the rule holds: gamma
    # shapes on both sides of the saddle-point switch at 1e4, empty domains,
    # zero weights and an equal copy of the first measure among them
    measures = [RandomMeasure(tuple(_bulk_component(*spec) for spec in comps)) for comps in specs]
    measures.append(RandomMeasure(tuple(_twin(comp) for comp in measures[0].components)))
    lo, hi = family.default_bracket()
    cs = [lo, *(lo + (hi - lo) * u**4 for u in inner), hi]
    bulk = _compiled_fresh(family, measures)
    comps = [comp for m in measures for comp in m.components]
    entries = [_entry(family, comp) for comp in comps]
    for comp, entry in zip(comps, entries):
        rule = _compiled_fresh(family, [RandomMeasure((comp,))])
        alone = _entry(family, comp)
        assert (entry is None) == (alone is None), comp
        if entry is not None:
            np.testing.assert_array_equal(entry.knots, alone.knots)
            np.testing.assert_array_equal(entry.weights, alone.weights)
            # an entry owns its rows: no view keeps the whole compile's weights alive
            assert entry.weights.base is None and not entry.weights.flags.writeable
            assert alone.weights.tobytes() == rule._panels.w.tobytes()
    singles = [_compiled_fresh(family, [m]) for m in measures]
    for c in cs:
        got = _outcomes(bulk, [c])[0]
        wants = [_outcomes(rule, [c])[0] for rule in singles]
        if isinstance(got, str):  # a component failed: a rule that holds it alone fails too
            assert got in wants
            break
        for i, want in enumerate(wants):
            assert not isinstance(want, str), (c, i, want)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g[i], w[0])


@pytest.mark.parametrize("variant", ["A", "B"])
@pytest.mark.parametrize("sigma2", 10.0 ** np.arange(-8, 9, 2))
def test_claims_bridges_compiled_by_kernel_group_match_integrate(sigma2, variant):
    # the tail curve's bridges, from point masses at the ultimates (sigma2
    # 1e-8, the saddle-point form) to nearly flat tails (1e8, the plain form)
    family, measures = build_bridge_sample(_CLAIMS, 40, sigma2, variant)
    assert_matches_oracle(family, measures, _CLAIMS_C, rule=_compiled_fresh(family, measures))
