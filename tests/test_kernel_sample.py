"""Samples that carry their columns: ``KernelSample`` against its measures.

A fit reads a KernelSample's columns where a list of the same measures is
scanned; every result must be bit-identical either way, and a sample the
columns do not cover must fall back to the compiled rule, which agrees
with ``integrate``.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measurefit import (
    DiracAtom,
    ExpGammaSpec,
    ExponentialRate,
    FitError,
    GammaKernel,
    KernelSample,
    NormalKernel,
    NormalLocation,
    NormalNormalSpec,
    ParetoTail,
    QuadratureError,
    RandomMeasure,
    StudyConfig,
    WeightedDensity,
    bootstrap_se,
    fit,
    integrate,
    make_dirac,
    replicate,
    simulate_scenario,
)
from measurefit import estimator, montecarlo
from measurefit.estimator import _SampleEvaluator
from measurefit.measure import PanelRule
from measurefit.quadrature import DEFAULT_QUAD

NN = dict(noise_mean=0.1, noise_sd=0.3)
SCENARIOS = [
    (ExpGammaSpec(0.5, 0.25), ExponentialRate(), "exp_gamma"),
    (ExpGammaSpec(0.5, 0.0), ExponentialRate(), "dirac"),
    (NormalNormalSpec(2.0, 1.0, expert_sd=0.7, **NN), NormalLocation(1.0), "normal_normal"),
    (NormalNormalSpec(2.0, 1.0, expert_sd=0.0, **NN), NormalLocation(1.0), "dirac"),
]


def hexes(*values):
    return [float(v).hex() for v in values]


def test_columns_are_read_only_and_measures_hold_python_floats():
    sample = KernelSample("gamma", shape=np.array([1.5, 4.0]), rate=2.0, shift=0.0)
    assert len(sample) == 2 and sample.kind == "gamma"
    assert sample.columns["rate"].tolist() == [2.0, 2.0]
    with pytest.raises(ValueError):
        sample.columns["shape"][0] = 3.0
    with pytest.raises(AttributeError):
        sample.kind = "normal"
    kernel = sample[1].components[0].kernel
    assert kernel == GammaKernel(4.0, 2.0, 0.0)
    assert type(kernel.shape) is float and type(kernel.rate) is float
    assert list(sample) == [RandomMeasure((WeightedDensity(1.0, GammaKernel(a, 2.0)),))
                            for a in (1.5, 4.0)]
    assert KernelSample("dirac", location=[1.0, 2.0])[0] == make_dirac(1.0)
    assert KernelSample("dirac", location=[1.0]) != KernelSample("dirac", location=[2.0])


@pytest.mark.parametrize("kind, columns", [
    ("beta", {"a": [1.0]}),
    ("gamma", {"shape": [1.0], "rate": [1.0]}),
    ("normal", {"mean": 1.0, "sd": 1.0}),
    ("normal", {"mean": [[1.0]], "sd": 1.0}),
])
def test_malformed_columns_rejected(kind, columns):
    with pytest.raises(ValueError):
        KernelSample(kind, **columns)


@pytest.mark.parametrize("build, make", [
    (lambda: KernelSample("gamma", shape=[1.0, 0.0], rate=2.0, shift=0.0),
     lambda: GammaKernel(0.0, 2.0)),
    (lambda: KernelSample("gamma", shape=[1.0], rate=2.0, shift=math.inf),
     lambda: GammaKernel(1.0, 2.0, math.inf)),
    (lambda: KernelSample("normal", mean=[0.0, math.inf], sd=0.7),
     lambda: NormalKernel(math.inf, 0.7)),
    (lambda: KernelSample("normal", mean=[0.0, math.nan], sd=0.7),
     lambda: NormalKernel(math.nan, 0.7)),
    (lambda: KernelSample("dirac", location=[0.0, math.nan]),
     lambda: DiracAtom(math.nan)),
    # the first invalid row raises, not the first failed check over the columns
    (lambda: KernelSample("gamma", shape=[1.0, 0.0], rate=2.0, shift=[math.inf, 0.0]),
     lambda: GammaKernel(1.0, 2.0, math.inf)),
])
def test_invalid_values_raise_the_constructors_error(build, make):
    with pytest.raises(ValueError) as expected:
        make()
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        build()


SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.5, 5e-324]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
POSITIVE = st.floats(min_value=5e-324, max_value=1e300)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
VALID = {"dirac": {"location": FINITE}, "gamma": {"shape": POSITIVE, "rate": POSITIVE,
                                                  "shift": FINITE},
         "normal": {"mean": FINITE, "sd": POSITIVE}}


@st.composite
def sample_columns(draw, valid: bool):
    """A kind and its columns: lists of n values, or scalars that broadcast, not all scalars."""
    kind = draw(st.sampled_from(sorted(VALID)))
    n = draw(st.integers(1, 12))
    scalar = draw(st.lists(st.booleans(), min_size=len(VALID[kind]), max_size=len(VALID[kind])))
    scalar[0] = scalar[0] and not all(scalar)
    columns = {}
    for (name, values), one in zip(VALID[kind].items(), scalar):
        values = values if valid else VALUES
        columns[name] = draw(values if one else st.lists(values, min_size=n, max_size=n))
    return kind, n, columns


def built_row_by_row(kind: str, n: int, columns: dict) -> list:
    """The sample's measures from the constructors, one row at a time."""
    rows = zip(*(values if isinstance(values, list) else [values] * n
                 for values in columns.values()))
    if kind == "dirac":
        return [RandomMeasure((DiracAtom(*row),)) for row in rows]
    cls = GammaKernel if kind == "gamma" else NormalKernel
    return [RandomMeasure((WeightedDensity(1.0, cls(*row)),)) for row in rows]


def assert_same_measures(got, want):
    assert list(got) == want and len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is RandomMeasure and type(a.components) is tuple
        (comp,), (ref,) = a.components, b.components
        assert type(comp) is type(ref)
        if isinstance(ref, WeightedDensity):
            assert comp.weight == 1.0 and comp.lower is None
            comp, ref = comp.kernel, ref.kernel
            assert type(comp) is type(ref)
        assert hash(comp) == hash(ref)
        assert vars(comp) == vars(ref) and list(vars(comp)) == list(vars(ref))
        assert all(type(v) is float for v in vars(comp).values())
        # -0.0 == 0.0: the fields must keep the sign the columns hold
        assert [math.copysign(1.0, v) for v in vars(comp).values()] == \
            [math.copysign(1.0, v) for v in vars(ref).values()]


@settings(max_examples=300, deadline=None)
@given(sample_columns(valid=True))
def test_valid_columns_build_the_measures_the_constructors_build(case):
    kind, n, columns = case
    assert_same_measures(KernelSample(kind, **columns), built_row_by_row(kind, n, columns))


@settings(max_examples=400, deadline=None)
@given(sample_columns(valid=False))
def test_any_columns_raise_the_first_invalid_rows_error(case):
    kind, n, columns = case
    try:
        want = built_row_by_row(kind, n, columns)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            KernelSample(kind, **columns)
        assert str(got.value) == str(exc)
    else:
        assert_same_measures(KernelSample(kind, **columns), want)


def test_a_zero_draw_raises_the_kernel_error():
    class ZeroDraw:
        def exponential(self, scale, size):
            return np.array([1.0, 0.0, 2.0])[:size]

    with pytest.raises(ValueError, match="gamma kernel needs positive shape and rate"):
        montecarlo._draw(ExpGammaSpec(0.5, 0.5), 3, ZeroDraw())


@pytest.mark.parametrize("spec, family, kind", SCENARIOS)
def test_column_profile_equals_the_scan(spec, family, kind):
    sample = simulate_scenario(spec, 300, seed=11)
    assert isinstance(sample, KernelSample)
    columns = PanelRule(family, sample)
    scanned = PanelRule(family, list(sample))
    assert columns.panels == scanned.panels == 0
    (got_kind, got, _), = columns._direct
    (want_kind, want, _), = scanned._direct
    assert got_kind == want_kind == sample.kind
    for name in got:
        assert got[name].dtype == want[name].dtype
        assert np.array_equal(got[name], want[name])
    for c in (0.4, 1.0, 2.5):
        assert [hexes(*t) for t in columns.losses(c)] == [hexes(*t) for t in scanned.losses(c)]


@pytest.mark.parametrize("spec, family, kind", SCENARIOS)
def test_fit_is_bit_identical_on_the_columns_and_on_the_list(spec, family, kind):
    sample = simulate_scenario(spec, 300, seed=12)
    results = [fit(family, s, method="zroot") for s in (sample, list(sample))]
    a, b = ([r.estimate, r.objective, r.m_hat, r.j_hat, r.v_hat, r.stderr] for r in results)
    assert hexes(*a) == hexes(*b)
    assert results[0].iterations == results[1].iterations


@pytest.mark.parametrize("spec, family, kind", SCENARIOS)
def test_bootstrap_of_the_columns_equals_the_list_bootstrap(spec, family, kind, monkeypatch):
    sample = simulate_scenario(spec, 300, seed=13)
    refits = []
    real_fit = estimator.fit

    def recording_fit(family, resample, *args, **kwargs):
        refits.append(type(resample.base.measures))
        return real_fit(family, resample, *args, **kwargs)

    monkeypatch.setattr(estimator, "fit", recording_fit)
    columns = bootstrap_se(family, sample, 12, seed=4, method="zroot")
    listed = bootstrap_se(family, list(sample), 12, seed=4, method="zroot")
    assert refits == [KernelSample] * 12 + [list] * 12
    assert hexes(*columns.estimates) == hexes(*listed.estimates)
    assert columns.n_failures == listed.n_failures == 0


@pytest.mark.parametrize("spec", [SCENARIOS[0][0], SCENARIOS[2][0]])
def test_replicate_is_bit_identical_on_the_columns_and_on_the_list(spec, monkeypatch):
    config = StudyConfig(scenario=spec, n=300, replications=4, seed=2, method="zroot")
    on_columns = replicate(config)
    draw = montecarlo._draw

    def draw_list(*args):
        family, sample = draw(*args)
        assert isinstance(sample, KernelSample)
        return family, list(sample)

    monkeypatch.setattr(montecarlo, "_draw", draw_list)
    on_list = replicate(config)
    for name in ("estimates", "variances", "ci_lower", "ci_upper"):
        assert hexes(*getattr(on_columns, name)) == hexes(*getattr(on_list, name))
    assert hexes(on_columns.score_mean, on_columns.score_se) == \
        hexes(on_list.score_mean, on_list.score_se)


@pytest.mark.parametrize("family, sample, cs", [
    (ParetoTail(x0=1.0), simulate_scenario(ExpGammaSpec(0.5, 0.25), 6, seed=3), [0.5, 2.0]),
    (NormalLocation(1.0), simulate_scenario(ExpGammaSpec(0.5, 0.25), 6, seed=3),
     [0.0, 2.0, 5.0]),
    (ExponentialRate(), KernelSample("gamma", shape=[2.0, 5.0], rate=4.0, shift=-0.5),
     [0.3, 1.0, 3.0]),
    (ExponentialRate(),
     simulate_scenario(NormalNormalSpec(2.0, 1.0, expert_sd=0.7, **NN), 6, seed=3),
     [0.3, 1.0, 3.0]),
])
def test_uncovered_families_fall_back_to_the_rule(family, sample, cs):
    evaluator = _SampleEvaluator(family, sample, DEFAULT_QUAD)
    evaluator.w_values(cs[0])
    rule = evaluator._rule
    assert rule.panels > 0
    for c in cs:
        oracle = [integrate(family, c, m) for m in sample]
        np.testing.assert_allclose(rule.integrals(c), oracle, rtol=10 * DEFAULT_QUAD.rel_tol,
                                   atol=10 * DEFAULT_QUAD.abs_tol, err_msg=f"c = {c!r}")


def test_evaluators_and_fits_never_read_the_measures():
    reads = []

    class Counting(KernelSample):
        __slots__ = ()

        def __getitem__(self, index):
            reads.append(index)
            return super().__getitem__(index)

        def __iter__(self):
            reads.append("iter")
            return super().__iter__()

    samples = [
        (ExponentialRate(), Counting("gamma", shape=[1.0, 3.0, 5.0], rate=2.0, shift=0.0)),
        (ExponentialRate(), Counting("dirac", location=[1.0, 3.0, 5.0])),
        (NormalLocation(1.0), Counting("normal", mean=[1.0, 3.0, 5.0], sd=0.7)),
        # uncovered: the rule is compiled only on the first evaluation
        (ParetoTail(x0=1.0), Counting("gamma", shape=[1.0, 3.0], rate=2.0, shift=1.0)),
    ]
    for family, sample in samples:
        _SampleEvaluator(family, sample, DEFAULT_QUAD)
    for family, sample in samples[:3]:
        fit(family, sample, method="zroot")
    assert reads == []


def _flaky_fit(real_fit, failing: dict[int, Exception]):
    calls = iter(range(10**6))

    def flaky(*args, **kwargs):
        exc = failing.get(next(calls))
        if exc is not None:
            raise exc
        return real_fit(*args, **kwargs)

    return flaky


def test_replicate_counts_failures_by_reason(monkeypatch):
    real_fit = montecarlo.fit
    failing = {1: FitError("no sign change"), 4: QuadratureError("stalled"),
               7: FitError("no sign change")}
    monkeypatch.setattr(montecarlo, "fit", _flaky_fit(real_fit, failing))
    config = StudyConfig(scenario=ExpGammaSpec(0.5, 0.5), n=200, replications=30, seed=1)
    summary = replicate(config)
    assert summary.failure_reasons == {"FitError: no sign change": 2,
                                       "QuadratureError: stalled": 1}
    assert summary.n_failures == 3 == sum(summary.failure_reasons.values())
    assert summary.estimates.size == 27

    # more than 10% failed: the abort names the reasons
    monkeypatch.setattr(montecarlo, "fit", _flaky_fit(real_fit, {0: ValueError("bad")}))
    with pytest.raises(RuntimeError, match=re.escape("{'ValueError: bad': 1}")):
        replicate(StudyConfig(scenario=ExpGammaSpec(0.5, 0.5), n=200, replications=5, seed=1))


def test_bootstrap_counts_failures_by_reason(monkeypatch):
    rng = np.random.default_rng(4)
    sample = [make_dirac(x) for x in rng.exponential(2.0, size=40)]
    monkeypatch.setattr(estimator, "fit", _flaky_fit(
        estimator.fit, {2: FitError("objective is infinite"), 5: ValueError("bad")}))
    res = bootstrap_se(ExponentialRate(), sample, 20, seed=3)
    assert res.failure_reasons == {"FitError: objective is infinite": 1, "ValueError: bad": 1}
    assert res.n_failures == 2 == sum(res.failure_reasons.values())
    assert res.estimates.size == 18
    clean = bootstrap_se(ExponentialRate(), sample, 3, seed=3)
    assert clean.n_failures == 0 and clean.failure_reasons == {}
