"""Measure-valued datapoints and integration of densities against them.

A datapoint is a RandomMeasure: an ordered mix of Dirac atoms, weighted
proper density kernels, CDF ramps (improper components whose Lebesgue
density is a kernel's CDF) and constant improper tails. Right-censoring,
measurement uncertainty and the paid-to-ultimate bridging measures are all
constructed from these four pieces.
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import repeat
from types import MappingProxyType, SimpleNamespace
from typing import NamedTuple

import numpy as np
from scipy import special

from .models import ExponentialRate, NormalLocation
from .quadrature import (
    DEFAULT_QUAD,
    QuadratureError,
    QuadratureSpec,
    domain_knots,
    gauss_rule,
    integrate_panels,
    refine_panels,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _stirling_residual(a: float) -> float:
    """gammaln(a) minus its Stirling main terms, for large a."""
    inv = 1.0 / a
    return inv / 12.0 - inv**3 / 360.0 + inv**5 / 1260.0


def _finite(x):
    """Whether x is finite, for a float or elementwise for an array; nan is not."""
    return abs(x) < math.inf


def _check(obj) -> None:
    """Raise the error of the first of ``obj._checks`` that the fields fail.

    Each check is a condition and its error message. The condition reads
    the fields as attributes, of floats or of whole columns, so a
    ``KernelSample`` checks its columns by the same conditions.
    """
    for ok, message in obj._checks:
        if not ok(obj):
            raise ValueError(message)


# ---------------------------------------------------------------------------
# kernels: proper distributions usable inside measure components


@dataclass(frozen=True)
class NormalKernel:
    mean: float
    sd: float

    _checks = ((lambda k: (k.sd > 0) & _finite(k.sd) & _finite(k.mean),
                "normal kernel needs finite mean and positive sd"),)
    __post_init__ = _check

    support_lower = -math.inf

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.sd
        return np.exp(-0.5 * z * z) / (self.sd * _SQRT_2PI)

    def cdf(self, x):
        return special.ndtr((np.asarray(x, dtype=float) - self.mean) / self.sd)

    def sf(self, x):
        return special.ndtr((self.mean - np.asarray(x, dtype=float)) / self.sd)

    def ppf(self, q):
        return self.mean + self.sd * special.ndtri(np.asarray(q, dtype=float))


@dataclass(frozen=True)
class GammaKernel:
    """Gamma density in the shifted variable x - shift (shape/rate form)."""

    shape: float
    rate: float
    shift: float = 0.0

    _checks = ((lambda k: (k.shape > 0) & (k.rate > 0),
                "gamma kernel needs positive shape and rate"),
               (lambda k: _finite(k.shift), "gamma kernel shift must be finite"))
    __post_init__ = _check

    @property
    def support_lower(self) -> float:
        return self.shift

    @property
    def mean(self) -> float:
        return self.shift + self.shape / self.rate

    def pdf(self, x):
        u = np.asarray(x, dtype=float) - self.shift
        safe = np.where(u > 0, u, 1.0)
        a = self.shape
        if a > 1e4:
            # cancellation-free saddle-point form: the naive log pdf
            # subtracts terms of size a*log(a), losing ~a*eps absolute
            # accuracy, which poisons quadrature error estimates for the
            # near-degenerate kernels used at bridging endpoints
            delta = self.rate * safe / a - 1.0
            log_pdf = (
                -a * (delta - np.log1p(delta))
                - np.log(safe)
                + 0.5 * math.log(a / (2.0 * math.pi))
                - _stirling_residual(a)
            )
        else:
            log_pdf = (
                a * math.log(self.rate)
                + (a - 1.0) * np.log(safe)
                - self.rate * safe
                - special.gammaln(a)
            )
        return np.where(u > 0, np.exp(log_pdf), 0.0)

    def cdf(self, x):
        u = np.asarray(x, dtype=float) - self.shift
        return np.where(u > 0, special.gammainc(self.shape, self.rate * np.maximum(u, 0.0)), 0.0)

    def sf(self, x):
        u = np.asarray(x, dtype=float) - self.shift
        return np.where(u > 0, special.gammaincc(self.shape, self.rate * np.maximum(u, 0.0)), 1.0)

    def ppf(self, q):
        return self.shift + special.gammaincinv(self.shape, np.asarray(q, dtype=float)) / self.rate


Kernel = NormalKernel | GammaKernel


# ---------------------------------------------------------------------------
# measure components


@dataclass(frozen=True)
class DiracAtom:
    location: float

    _checks = ((lambda a: _finite(a.location), "dirac atom location must be finite"),)
    __post_init__ = _check


@dataclass(frozen=True)
class WeightedDensity:
    """A proper density kernel carrying nonnegative mass ``weight``.

    ``lower`` optionally restricts the kernel to [lower, inf) WITHOUT
    renormalizing, so the component can carry mass below ``weight``.
    """

    weight: float
    kernel: Kernel
    lower: float | None = None

    def __post_init__(self) -> None:
        if not (self.weight >= 0 and math.isfinite(self.weight)):
            raise ValueError("density weight must be finite and nonnegative")
        if self.lower is not None and not math.isfinite(self.lower):
            raise ValueError("density restriction bound must be finite")


@dataclass(frozen=True)
class CdfRamp:
    """Improper component whose Lebesgue density is the kernel's CDF."""

    kernel: Kernel


@dataclass(frozen=True)
class ConstantTail:
    """Improper component with density ``height`` on [lower, inf)."""

    lower: float
    height: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.lower):
            raise ValueError("constant tail lower bound must be finite")
        if not (self.height >= 0 and math.isfinite(self.height)):
            raise ValueError("constant tail height must be finite and nonnegative")


MeasureComponent = DiracAtom | WeightedDensity | CdfRamp | ConstantTail


@dataclass(frozen=True)
class RandomMeasure:
    """One datapoint: an ordered collection of measure components."""

    components: tuple[MeasureComponent, ...]

    def __post_init__(self) -> None:
        if type(self.components) is not tuple:
            object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("a random measure needs at least one component")


def total_mass(measure: RandomMeasure) -> float:
    """Total mass of the measure; ``inf`` for improper components."""
    mass = 0.0
    for comp in measure.components:
        if isinstance(comp, DiracAtom):
            mass += 1.0
        elif isinstance(comp, WeightedDensity):
            if comp.lower is None:
                mass += comp.weight
            else:
                mass += comp.weight * float(comp.kernel.sf(comp.lower))
        elif isinstance(comp, (CdfRamp, ConstantTail)):
            if isinstance(comp, ConstantTail) and comp.height == 0:
                continue
            return math.inf
    return mass


def lebesgue_density(measure: RandomMeasure, x):
    """Density of the absolutely continuous part of the measure at x.

    Dirac atoms carry no Lebesgue density and are skipped.
    """
    xs = np.asarray(x, dtype=float)
    out = np.zeros_like(xs)
    for comp in measure.components:
        if isinstance(comp, WeightedDensity):
            vals = comp.weight * comp.kernel.pdf(xs)
            if comp.lower is not None:
                vals = np.where(xs >= comp.lower, vals, 0.0)
            out = out + vals
        elif isinstance(comp, CdfRamp):
            out = out + comp.kernel.cdf(xs)
        elif isinstance(comp, ConstantTail):
            out = out + np.where(xs >= comp.lower, comp.height, 0.0)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# constructors


def make_dirac(location: float) -> RandomMeasure:
    """Point mass at an exactly observed value."""
    return RandomMeasure((DiracAtom(float(location)),))


def make_right_censoring(paid: float, settled: int) -> RandomMeasure:
    """Classical right-censoring: atom when settled, unit tail when open."""
    if not math.isfinite(paid):
        raise ValueError("censoring point must be finite")
    if settled not in (0, 1):
        raise ValueError("settlement flag must be 0 or 1")
    if settled:
        return make_dirac(paid)
    return RandomMeasure((ConstantTail(float(paid), 1.0),))


def make_measurement_uncertainty(kernel: Kernel, indicator: int) -> RandomMeasure:
    """Right-censoring with a spread around the censoring point.

    ``indicator`` may be the settlement flag or an exogenous expert guess:
    1 gives the kernel density itself, 0 the improper CDF ramp.
    """
    if indicator not in (0, 1):
        raise ValueError("indicator must be 0 or 1")
    if not hasattr(kernel, "cdf"):
        raise ValueError("kernel must provide a CDF")
    if indicator:
        return RandomMeasure((WeightedDensity(1.0, kernel),))
    return RandomMeasure((CdfRamp(kernel),))


def make_gamma_bridge(paid: float, ultimate: float, sigma2: float,
                      variant: str = "A") -> RandomMeasure:
    """Bridge between a point mass at the ultimate and a flat tail above paid.

    For small sigma2 the gamma component concentrates at the ultimate; for
    large sigma2 the gamma mass on [paid, inf) vanishes and the constant
    tail approaches height one. Variant A puts the expert variance
    proportional to ultimate - paid + 1 (gamma in the shifted variable),
    variant B proportional to the ultimate itself (gamma in the raw
    variable). Neither gamma part is renormalized after restriction to
    [paid, inf): the component heights carry information.
    """
    if not (sigma2 > 0 and math.isfinite(sigma2)):
        raise ValueError("sigma2 must be positive and finite")
    if ultimate < paid:
        raise ValueError("ultimate must be at least the paid amount")
    if variant == "A":
        span = ultimate - paid + 1.0
        kernel = GammaKernel(shape=span / sigma2, rate=1.0 / sigma2, shift=paid - 1.0)
    elif variant == "B":
        if ultimate <= 0:
            raise ValueError("variant B needs a positive ultimate")
        kernel = GammaKernel(shape=ultimate / sigma2, rate=1.0 / sigma2, shift=0.0)
    else:
        raise ValueError(f"unknown bridge variant {variant!r}")
    return RandomMeasure(
        (
            ConstantTail(float(paid), min(sigma2, 1.0)),
            WeightedDensity(1.0, kernel, lower=float(paid)),
        )
    )


# ---------------------------------------------------------------------------
# samples that carry their columns


def _instances(cls, **columns) -> list:
    """Instances of the frozen dataclass ``cls`` from field values checked already.

    ``columns`` maps each field to a sequence of its values, one per
    instance. The fields are set as the dataclass's ``__init__`` sets them,
    a column at a time, but neither it nor ``__post_init__`` runs. The
    first instance gets all of its fields before the others are made:
    CPython shares one attribute key table among a class's instances and
    stops growing it once the class has made many, so an instance made
    before the table holds every field would carry a dict of its own.
    """
    n = len(next(iter(columns.values())))
    if not n:
        return []
    objs = [object.__new__(cls)]
    for name, values in columns.items():
        object.__setattr__(objs[0], name, values[0])
    objs += map(object.__new__, repeat(cls, n - 1))
    for name, values in columns.items():  # the first instance again, with the same values
        deque(map(object.__setattr__, objs, repeat(name), values), maxlen=0)
    return objs


class KernelSample(Sequence):
    """A sample of one-component measures that also carries them as columns.

    ``kind`` names the component every measure holds, and ``columns`` maps
    its fields to read-only float arrays with one entry per measure:

    - ``"dirac"``: ``location`` of a ``DiracAtom``;
    - ``"gamma"``: ``shape``, ``rate`` and ``shift`` of a unit-weight
      ``GammaKernel`` density;
    - ``"normal"``: ``mean`` and ``sd`` of a unit-weight ``NormalKernel``
      density.

    Scalar columns broadcast to the sample length. On construction each
    column is checked once, as a whole, by the conditions the atom's or
    kernel's constructor checks; where a row fails, that row's constructor
    is called and raises its ``ValueError``. The measures are then built
    from the checked columns, with Python float fields, equal to those the
    constructors build, so iteration costs nothing. A ``PanelRule`` takes
    the columns as its closed-form terms rather than inspecting the
    measures. Two samples are equal when their measures are.
    """

    _CLASSES = {"dirac": DiracAtom, "gamma": GammaKernel, "normal": NormalKernel}
    _FIELDS = {kind: tuple(f.name for f in fields(cls)) for kind, cls in _CLASSES.items()}

    __slots__ = ("kind", "columns", "_measures")

    def __init__(self, kind: str, **columns) -> None:
        cls = self._CLASSES.get(kind)
        if cls is None:
            raise ValueError(f"unknown sample kind {kind!r}")
        names = self._FIELDS[kind]
        if set(columns) != set(names):
            raise ValueError(f"a {kind} sample needs the columns {', '.join(names)}")
        arrays = np.broadcast_arrays(*(np.asarray(columns[f], dtype=float) for f in names))
        if arrays[0].ndim != 1:
            raise ValueError("sample columns must be one-dimensional")
        frozen = {}
        for name, values in zip(names, arrays):
            values = values.copy()
            values.flags.writeable = False
            frozen[name] = values
        n = len(arrays[0])
        checked = SimpleNamespace(**frozen)
        valid = np.logical_and.reduce([ok(checked) for ok, _ in cls._checks])
        if not valid.all():  # the first invalid row's constructor raises its error
            row = int(np.argmin(valid))
            cls(**{name: values[row].item() for name, values in frozen.items()})
        # Python floats, not numpy scalars, inside the measures
        comps = _instances(cls, **{name: values.tolist() for name, values in frozen.items()})
        if kind != "dirac":  # a unit weight and no restriction pass the density's checks
            comps = _instances(WeightedDensity, weight=[1.0] * n, kernel=comps, lower=[None] * n)
        measures = tuple(_instances(RandomMeasure, components=list(zip(comps))))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "columns", MappingProxyType(frozen))
        object.__setattr__(self, "_measures", measures)

    def __setattr__(self, name, value):
        raise AttributeError("KernelSample is immutable")

    def __len__(self) -> int:
        return len(self._measures)

    def __getitem__(self, index):
        return self._measures[index]

    def __iter__(self):
        return iter(self._measures)

    def __eq__(self, other):
        if not isinstance(other, KernelSample):
            return NotImplemented
        return self._measures == other._measures


# ---------------------------------------------------------------------------
# integration


def _kernel_knots(kernel: Kernel, lo: float, quad: QuadratureSpec) -> np.ndarray | None:
    """Panel knots on [lo, hi], hi where the kernel keeps ``tail_mass`` above; None if empty."""
    hi = float(kernel.ppf(1.0 - quad.tail_mass))
    if not hi > lo:
        return None
    return domain_knots(lo, hi, kernel.ppf)


def density_knots(family, comp: WeightedDensity, quad: QuadratureSpec) -> np.ndarray | None:
    """Panel knots of a density component's truncated domain; None when it is empty.

    The domain is cut where the kernel keeps less than ``tail_mass`` outside,
    so it does not depend on the family parameter.
    """
    kernel = comp.kernel
    lo = max(family.support_lower, kernel.support_lower)
    if comp.lower is not None:
        lo = max(lo, comp.lower)
    lo = max(lo, float(kernel.ppf(quad.tail_mass)))
    return _kernel_knots(kernel, lo, quad)


def ramp_cut(family, comp: CdfRamp, quad: QuadratureSpec, c: float | None = None):
    """Lower cut of a ramp's truncated domain: the larger of the family and kernel support bounds.

    Only when both are unbounded below does it depend on the parameter: it
    is then the family's low cutoff at ``c``, and with ``c`` None the result
    is None.
    """
    lo = max(family.support_lower, comp.kernel.support_lower)
    if lo == -math.inf:
        if c is None:
            return None
        lo = family.low_cutoff(c, quad.tail_mass)
    return lo


def _with_peak_knots(family, c: float, knots: np.ndarray) -> np.ndarray:
    """The knots plus those of the family's peak at c that fall inside them.

    A kernel much wider than the family puts the family's peak inside one
    wide panel, where the Gauss nodes can miss it. These knots depend on c,
    so the compile-time knots leave them out.
    """
    peak = family.peak_knots(c)
    return np.concatenate([knots, peak[(peak > knots[0]) & (peak < knots[-1])]])


def _density_component_integral(family, c: float, comp: WeightedDensity,
                                quad: QuadratureSpec) -> float:
    knots = density_knots(family, comp, quad)
    if knots is None:
        return 0.0
    kernel = comp.kernel
    integrand = lambda x: family.density(c, x) * kernel.pdf(x)
    return comp.weight * integrate_panels(integrand, _with_peak_knots(family, c, knots), quad)


def _ramp_component_integral(family, c: float, comp: CdfRamp,
                             quad: QuadratureSpec) -> float:
    # integral of f_c * G == survival of the family at the cut minus the
    # integral of f_c * (1 - G); the second factor decays like the kernel
    # survival, which makes the domain truncatable.
    lo = ramp_cut(family, comp, quad, c)
    knots = _kernel_knots(comp.kernel, lo, quad)
    base = float(family.survival(c, lo))
    if knots is None:
        return base
    kernel = comp.kernel
    integrand = lambda x: family.density(c, x) * kernel.sf(x)
    return base - integrate_panels(integrand, _with_peak_knots(family, c, knots), quad)


def integrate(family, c: float, measure: RandomMeasure,
              quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Integral of the family density against the measure.

    Dirac atoms evaluate the density, constant tails use the analytic
    survival function, density and ramp components go through adaptive
    quadrature with tail truncation. Quadrature failure raises rather than
    returning a silently wrong value.
    """
    family.check_param(c)
    value = 0.0
    for comp in measure.components:
        if isinstance(comp, DiracAtom):
            value += float(family.density(c, comp.location))
        elif isinstance(comp, ConstantTail):
            if comp.height > 0:
                value += comp.height * float(family.survival(c, comp.lower))
        elif isinstance(comp, WeightedDensity):
            if comp.weight > 0:
                value += _density_component_integral(family, c, comp, quad)
        elif isinstance(comp, CdfRamp):
            value += _ramp_component_integral(family, c, comp, quad)
        else:
            raise TypeError(f"unknown measure component {comp!r}")
    return value


# ---------------------------------------------------------------------------
# compiled integration: one sample, many parameter values


_EVERY = slice(None)
_NO_PANELS = (np.empty(0), np.empty(0), *gauss_rule(np.empty(0), np.empty(0)))
_NO_KNOTS = np.empty(0)
_NO_ENTRIES = MappingProxyType({})


class _PanelEntry(NamedTuple):
    """The compile-time panels of one density or ramp component, read-only.

    ``knots`` bound the panels (empty where the truncated domain is), and
    ``weights`` holds one row per panel of c-free node weights at its 21
    high-rule and then 10 low-rule Gauss nodes: the Gauss weight times the
    component's weight function and the family's density factor e^h there.
    """

    knots: np.ndarray
    weights: np.ndarray


# The panel entries of every live density or ramp component, one per
# (family, quadrature spec); a component's entries die with it. Equal
# components share entries, since an entry depends on nothing else.
_PANEL_MEMO: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def closed_form_terms(family, kind: str, c: float, columns) -> tuple:
    """W = -log I, Z = dW/dc and Z' = dZ/dc of one-term measures at c, always all three.

    ``columns`` holds the ``KernelSample`` columns of ``kind`` and a
    ``log_weight`` (0 where absent), as arrays or scalars; the caller checks c.

    - ``"dirac"``, any family: an atom at x, I = f_c(x);
    - ``"gamma"``, ``ExponentialRate``: weight w times a gamma kernel with
      shift >= 0, I = w c e^(-c shift) (rate / (rate + c))^shape;
    - ``"normal"``, ``NormalLocation``: weight w times a normal kernel,
      I = w phi((c - mean) / s) / s with s^2 = sigma1^2 + sd^2.
    """
    log_w = columns.get("log_weight", 0.0)
    if kind == "dirac":
        x, lower = columns["location"], family.support_lower
        with np.errstate(divide="ignore"):
            w = -np.log(family.density(c, x))
        # an atom below the support has W = inf; its score is read at the bound
        z = -np.asarray(family.log_density_grad(c, np.maximum(x, lower)))
        dz = np.full(np.shape(w), -family.log_density_hess(c))
    elif kind == "gamma":
        shape, rate, shift = columns["shape"], columns["rate"], columns["shift"]
        w = -log_w - math.log(c) + c * shift + shape * np.log1p(c / rate)
        z = shift + shape / (rate + c) - 1.0 / c
        dz = 1.0 / (c * c) - shape / (rate + c) ** 2
    else:
        mean = columns["mean"]
        s2 = family.sigma1**2 + columns["sd"] ** 2
        w = -log_w + 0.5 * np.log(2.0 * math.pi * s2) + (mean - c) ** 2 / (2.0 * s2)
        z = (c - mean) / s2
        dz = 1.0 / s2
    return w, z, dz


def _split_at(lo: np.ndarray, hi: np.ndarray, knots: np.ndarray, width: float):
    """Panels [lo_i, hi_i], each one wider than ``width`` cut at the knots inside it."""
    inside = np.searchsorted(knots, hi, "left") - np.searchsorted(knots, lo, "right")
    wide = (inside > 0) & (hi - lo > width)
    if not wide.any():
        return lo, hi
    cuts = [np.concatenate(([a], knots[(knots > a) & (knots < b)], [b]))
            for a, b in zip(lo[wide], hi[wide])]
    return (np.concatenate([lo[~wide], *(p[:-1] for p in cuts)]),
            np.concatenate([hi[~wide], *(p[1:] for p in cuts)]))


class _Panels(NamedTuple):
    """The panels of a rule's components, packed flat.

    Component k owns panels ``starts[k]`` up to ``ends[k]``; ``stat`` holds
    the node statistics t at the high-rule nodes, then at the low-rule
    nodes, so one density call covers both.
    """

    starts: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    w_high: np.ndarray
    w_low: np.ndarray
    stat: np.ndarray

    @classmethod
    def pack(cls, rules) -> _Panels:
        """Concatenate the components' rules, as ``PanelRule._component_rule`` returns them."""
        lo, hi, t_high, w_high, t_low, w_low = (
            [np.concatenate(col) for col in zip(*rules)] if rules else _NO_PANELS)
        starts = np.cumsum([0] + [len(r[0]) for r in rules], dtype=np.intp)[:-1]
        return cls(starts, lo, hi, w_high, w_low, np.concatenate([t_high.ravel(), t_low.ravel()]))

    @classmethod
    def assemble(cls, family, entries) -> _Panels:
        """The panels of ``_PanelEntry`` values, with the family's node statistics t.

        t is computed at the nodes of all panels by one ``gauss_rule`` and one
        ``node_form`` call. Both are elementwise, so the panels are
        bit-identical to those ``pack`` makes from ``PanelRule._component_rule``.
        """
        if not entries:
            return cls.pack([])
        sizes = np.array([len(entry.knots) - 1 for entry in entries], dtype=np.intp)
        lo = np.concatenate([entry.knots[:-1] for entry in entries])
        hi = np.concatenate([entry.knots[1:] for entry in entries])
        x_high, _, x_low, _ = gauss_rule(lo, hi)
        weights = np.concatenate([entry.weights for entry in entries])
        n = x_high.shape[1]
        return cls(np.cumsum(sizes) - sizes, lo, hi, weights[:, :n], weights[:, n:],
                   family.node_form(np.concatenate([x_high, x_low], axis=None))[0])

    def rules(self) -> list:
        """The components' rules, as ``pack`` takes them."""
        n = self.w_high.size
        t_high = self.stat[:n].reshape(self.w_high.shape)
        t_low = self.stat[n:].reshape(self.w_low.shape)
        return [(self.lo[s:e], self.hi[s:e], t_high[s:e], self.w_high[s:e],
                 t_low[s:e], self.w_low[s:e]) for s, e in zip(self.starts, self.ends)]

    @property
    def ends(self) -> np.ndarray:
        return np.append(self.starts[1:], len(self.lo))

    def high_sums(self, node_values: np.ndarray) -> np.ndarray:
        """Per-component high-rule sums of values given at the high-rule nodes."""
        per_panel = node_values.reshape(self.w_high.shape) * self.w_high
        return np.add.reduceat(per_panel.sum(axis=1), self.starts)


class PanelRule:
    """The measures of one sample compiled for evaluation at many c.

    Within a fit the measures do not depend on the parameter, only the family
    density does. So each measure is compiled once into terms of two
    kinds. Closed-form terms are the kinds of ``closed_form_terms``, plus
    ``"tail"`` (a constant tail or ramp cut, height times the family's
    survival at ``lower``) and ``"ramp"`` (a normal ramp under the normal
    location, Phi((c - mean) / s) with s^2 = sigma1^2 + sd^2). Quadrature
    panels take every other density or ramp; their 21- and 10-point Gauss
    nodes carry c-free weights (kernel pdf for densities, kernel sf for
    ramps, times the family's density factor e^h) and the family's c-free
    node statistic t (see ``models``). A ``KernelSample`` of closed-form
    terms hands over its columns as they are.

    A panel component's compile-time knots and node weights depend only on
    the component, the family and the ``QuadratureSpec``, so they are
    computed once per live component and kept in ``_PANEL_MEMO``: a later
    rule on the same or equal components, under an equal family and
    quadrature, reads them from there, bit-identical to a fresh compile.
    Only t is computed again, for all panels at once. An entry dies with its
    component, and nothing the rule refines is written back to it.

    Every evaluation computes all three terms. ``losses(c)`` returns W =
    -log I(c), Z = dW/dc and Z' = dZ/dc of every measure. A measure of one
    closed-form term reads them off that term. Any other sums I, I' and I''
    over its terms; ``integrals_with_hess(c)`` returns the three sums of
    every measure, ``integrals_with_grad(c)`` the first two and
    ``integrals(c)`` the first. A term of ``closed_form_terms`` adds e^-W,
    -Z e^-W and (Z^2 - Z') e^-W, an atom or a panel node its density times
    1, the score and score^2 + score', a tail or a ramp its value and exact
    parameter derivatives.
    Atoms read the family's scalar density and score; all panel nodes share
    one ``exp`` of the family's node log density at their t, and their
    scores are the node score at t.

    At every c each panel component's integral is accepted only under the
    rule of ``refine_panels``: summed error ``|high - low|`` within
    ``max(abs_tol, rel_tol * |integral|)``. A component that fails is
    bisected with the scalar family density, as in ``integrate``, and keeps
    its refined panels, with t at their nodes, for later c; where that
    fails, it is refined once more from its compile-time panels before the
    error is raised, so a rule's history never makes it fail where
    ``integrate`` succeeds. The panels are one immutable ``_Panels`` value.
    Under a family whose density peaks inside its support (the normal
    location) the peak knots at c are cut into every panel wider than their
    spacing before the check, since Gauss nodes straddling a narrow peak
    agree on a wrong value. The cut panels serve that c only; a refinement
    at c is made from them, so the panels the rule keeps include the cut.

    ``take(indices)`` is the rule of a resample of the sample, built from
    this rule's closed-form columns and panels rather than compiled again;
    a bootstrap refit reads its rule this way.
    """

    # the columns of each closed-form term kind
    _TERMS = {"dirac": ("location",), "gamma": ("shape", "rate", "shift", "log_weight"),
              "normal": ("mean", "sd", "log_weight"), "tail": ("lower", "height"),
              "ramp": ("mean", "s")}

    def __init__(self, family, measures, quad: QuadratureSpec = DEFAULT_QUAD) -> None:
        self.family = family
        self.quad = quad
        comps = []
        direct = {kind: [] for kind in KernelSample._FIELDS}  # measures of one closed-form term
        mixed = {kind: [] for kind in self._TERMS}  # closed-form terms of other measures
        linear: list[int] = []
        self._slot_of, self._n_slots = _EVERY, len(measures)
        if isinstance(measures, KernelSample) and self._covers(measures):
            self._direct = [(measures.kind, measures.columns, np.arange(len(measures)))]
        else:
            for slot, measure in enumerate(measures):
                components = measure.components
                if len(components) == 1 and (term := self._closed_form(components[0], slot)):
                    direct[term[0]].append(term[1])
                else:
                    linear.append(slot)
                    self._compile(components, slot, mixed, comps)
            self._direct = self._groups(direct)
        self._mixed = self._groups(mixed)
        self._linear = np.array(linear, dtype=np.intp)
        self._compile_panels(comps)

    def take(self, indices) -> PanelRule:
        """The rule of the resample ``[measures[i] for i in indices]``, without compiling it.

        The resample's measures are compiled already: the new rule keeps the
        closed-form terms and the panels, weight functions, knots and scales
        of each measure drawn at least once, in this rule's order, and maps
        each index to its measure. Every value of a measure is computed from
        that measure's terms alone, so taken from a rule not yet evaluated,
        the values are bit-identical to those of ``PanelRule(family,
        resample)``. Panels this rule refined are taken as they are, which
        keeps the values within the quadrature tolerance.
        """
        drawn = np.asarray(indices, dtype=np.intp)
        if self._slot_of is not _EVERY:
            drawn = self._slot_of[drawn]
        keep = np.zeros(self._n_slots, dtype=bool)
        keep[drawn] = True
        new_slot = np.cumsum(keep) - 1  # the slot of each kept measure in the new rule

        def groups(old):
            out = []
            for kind, columns, slots in old:
                rows = keep[slots]
                if rows.any():
                    out.append((kind, {f: v[rows] for f, v in columns.items()},
                                new_slot[slots[rows]]))
            return out

        kept = keep[self._owner]  # the components of kept measures
        rule = object.__new__(PanelRule)
        rule.family, rule.quad = self.family, self.quad
        rule._slot_of, rule._n_slots = new_slot[drawn], int(keep.sum())
        rule._direct, rule._mixed = groups(self._direct), groups(self._mixed)
        rule._linear = new_slot[self._linear[keep[self._linear]]]
        rule._scale = self._scale[kept]
        rule._weight_fns = [g for g, k in zip(self._weight_fns, kept) if k]
        rule._knots = [x for x, k in zip(self._knots, kept) if k]
        rule._owner = new_slot[self._owner[kept]]
        rule._panels = _Panels.pack([r for r, k in zip(self._panels.rules(), kept) if k])
        return rule

    def _covers(self, sample: KernelSample) -> bool:
        """Whether every measure of the sample is one closed-form term under the family."""
        if sample.kind == "gamma":
            return isinstance(self.family, ExponentialRate) and (sample.columns["shift"] >= 0).all()
        return sample.kind == "dirac" or isinstance(self.family, NormalLocation)

    def _closed_form(self, comp: MeasureComponent, slot: int) -> tuple | None:
        """The component as a closed-form term ``(kind, (slot, *fields))``, or None."""
        if isinstance(comp, DiracAtom):
            return "dirac", (slot, comp.location)
        if not (isinstance(comp, WeightedDensity) and comp.weight > 0 and comp.lower is None):
            return None
        kernel = comp.kernel
        if (isinstance(kernel, GammaKernel) and kernel.shift >= 0
                and isinstance(self.family, ExponentialRate)):
            return "gamma", (slot, kernel.shape, kernel.rate, kernel.shift, math.log(comp.weight))
        if isinstance(kernel, NormalKernel) and isinstance(self.family, NormalLocation):
            return "normal", (slot, kernel.mean, kernel.sd, math.log(comp.weight))
        return None

    @classmethod
    def _groups(cls, terms: dict) -> list:
        """``(kind, columns, slots)`` of each kind that has terms."""
        groups = []
        for kind, rows in terms.items():
            if rows:
                slots, *values = zip(*rows)
                columns = {f: np.array(v, dtype=float) for f, v in zip(cls._TERMS[kind], values)}
                groups.append((kind, columns, np.array(slots, dtype=np.intp)))
        return groups

    def _compile(self, components, slot: int, mixed, comps) -> None:
        """Append the terms of a measure that is not one closed-form term."""
        family, quad = self.family, self.quad
        for comp in components:
            term = self._closed_form(comp, slot)
            if term is not None:
                mixed[term[0]].append(term[1])
            elif isinstance(comp, ConstantTail):
                if comp.height > 0:
                    mixed["tail"].append((slot, comp.lower, comp.height))
            elif isinstance(comp, WeightedDensity):
                if comp.weight > 0:
                    comps.append((slot, comp.weight, comp.kernel.pdf, comp))
            elif isinstance(comp, CdfRamp):
                lo = ramp_cut(family, comp, quad)
                if lo is None:
                    # both normal: P(Y <= X) for X ~ N(c, sigma1^2), Y ~ N(mean, sd^2)
                    kernel = comp.kernel
                    mixed["ramp"].append((slot, kernel.mean, math.hypot(family.sigma1, kernel.sd)))
                    continue
                mixed["tail"].append((slot, lo, 1.0))
                comps.append((slot, -1.0, comp.kernel.sf, comp))
            else:
                raise TypeError(f"unknown measure component {comp!r}")

    def _compile_panels(self, comps) -> None:
        """Compile the panels of the components ``(slot, scale, weight_fn, comp)``.

        Each component's knots and node weights are read from ``_PANEL_MEMO``;
        ``_panel_entry`` computes and stores those it holds no entry for under
        this family and quadrature. Components whose domain is empty get no
        panels.
        """
        key = (self.family, self.quad)
        kept = []
        for slot, scale, weight_fn, comp in comps:
            entry = _PANEL_MEMO.get(comp, _NO_ENTRIES).get(key)
            if entry is None:
                entry = self._panel_entry(weight_fn, comp)
                _PANEL_MEMO.setdefault(comp, {})[key] = entry
            if len(entry.knots):
                kept.append((slot, scale, weight_fn, entry))
        self._scale = np.array([scale for _, scale, _, _ in kept], dtype=float)
        self._weight_fns = [g for _, _, g, _ in kept]
        self._knots = [entry.knots for *_, entry in kept]  # the compile-time panels
        self._owner = np.array([slot for slot, *_ in kept], dtype=np.intp)
        self._panels = _Panels.assemble(self.family, [entry for *_, entry in kept])

    def _panel_entry(self, weight_fn, comp) -> _PanelEntry:
        """The compile-time knots and node weights of a density or of a ramp with a finite cut."""
        family, quad = self.family, self.quad
        if isinstance(comp, WeightedDensity):
            knots = density_knots(family, comp, quad)
        else:
            knots = _kernel_knots(comp.kernel, ramp_cut(family, comp, quad), quad)
        if knots is None:
            knots = _NO_KNOTS
        x_high, w_high, x_low, w_low = gauss_rule(knots[:-1], knots[1:])
        nodes = np.concatenate([x_high, x_low], axis=1)
        entry = _PanelEntry(knots, np.concatenate([w_high, w_low], axis=1) * weight_fn(nodes)
                            * family.node_form(nodes)[1])
        for values in entry:
            values.flags.writeable = False
        return entry

    def _component_rule(self, weight_fn, lo: np.ndarray, hi: np.ndarray):
        """Panels, node statistics t and c-free weights of one component.

        A node's weight is its Gauss weight times the component's weight
        function and the family's density factor e^h at the node.
        """
        x_high, w_high, x_low, w_low = gauss_rule(lo, hi)
        t_high, h_high = self.family.node_form(x_high)
        t_low, h_low = self.family.node_form(x_low)
        return (lo, hi, t_high, w_high * weight_fn(x_high) * h_high,
                t_low, w_low * weight_fn(x_low) * h_low)

    @property
    def panels(self) -> int:
        """Number of quadrature panels currently compiled."""
        return len(self._panels.lo)

    def losses(self, c: float) -> tuple:
        """W = -log I(c), Z = dW/dc and Z' = dZ/dc of every measure, in sample order."""
        self.family.check_param(c)
        parts = [(slots, closed_form_terms(self.family, kind, c, columns))
                 for kind, columns, slots in self._direct]
        if self._linear.size:
            values, grad, hess = (s[self._linear] for s in self._sums(c, self._mixed))
            with np.errstate(divide="ignore", invalid="ignore"):
                z = -grad / values
                dz = z * z - hess / values
                w = -np.log(np.maximum(values, 0.0))
            parts.append((self._linear, (w, z, dz)))
        if len(parts) == 1:  # one part holds every measure, in slot order
            out = parts[0][1]
        else:
            out = [np.empty(self._n_slots) for _ in range(3)]
            for slots, terms in parts:
                for values, term in zip(out, terms):
                    values[slots] = term
        return tuple(values[self._slot_of] for values in out)

    def integrals(self, c: float) -> np.ndarray:
        """Integral of the family density against each measure, in sample order."""
        return self.integrals_with_hess(c)[0]

    def integrals_with_grad(self, c: float) -> tuple[np.ndarray, np.ndarray]:
        """Integrals and their exact derivatives in c, in sample order."""
        return self.integrals_with_hess(c)[:2]

    def integrals_with_hess(self, c: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Integrals with their exact first and second derivatives in c, in sample order."""
        self.family.check_param(c)
        sums = self._sums(c, self._mixed + self._direct)
        return tuple(values[self._slot_of] for values in sums)

    def _sums(self, c: float, groups) -> list:
        """Per-slot I, I' and I'' from the panel terms and ``groups``."""
        parts = [self._panel_terms(c)]
        parts += [self._term_sums(c, kind, columns) for kind, columns, _ in groups]
        owners = np.concatenate([self._owner, *(slots for _, _, slots in groups)])
        return [np.bincount(owners, np.concatenate(terms), minlength=self._n_slots)
                for terms in zip(*parts)]

    def _term_sums(self, c: float, kind: str, columns) -> list:
        """I, I' and I'' of closed-form terms of one kind."""
        family = self.family
        if kind == "dirac":  # atoms add the density, times the score and score^2 + score'
            x = columns["location"]
            dens = family.density(c, x)
            # atoms below the support carry zero density; their score is read at the bound
            score = family.log_density_grad(c, np.maximum(x, family.support_lower))
            grad = dens * score
            return [dens, grad, grad * score + dens * family.log_density_hess(c)]
        if kind == "tail":  # height times the survival at the lower bound
            return [columns["height"] * v for v in family.survival_terms(c, columns["lower"])]
        if kind == "ramp":  # Phi((c - mean) / s)
            s = columns["s"]
            z = (c - columns["mean"]) / s
            pdf = np.exp(-0.5 * z * z) / (_SQRT_2PI * s)
            return [special.ndtr(z), pdf, -z * pdf / s]
        w, z, dz = closed_form_terms(family, kind, c, columns)
        values = np.exp(-w)
        return [values, -z * values, (z * z - dz) * values]

    def _panel_terms(self, c: float) -> list:
        """I, I' and I'' of the panel components, cut at c's peak."""
        family, quad = self.family, self.quad
        panels = self._cut_at_peak(c, self._panels)
        # the node density over e^h, which the weights carry
        dens = np.exp(family.node_log_density(c, panels.stat))
        n = panels.w_high.size  # the high-rule nodes come first
        high = (dens[:n].reshape(panels.w_high.shape) * panels.w_high).sum(axis=1)
        low = (dens[n:].reshape(panels.w_low.shape) * panels.w_low).sum(axis=1)
        err = np.abs(high - low)
        totals = np.add.reduceat(high, panels.starts)
        errors = np.add.reduceat(err, panels.starts)
        tols = np.maximum(quad.abs_tol, quad.rel_tol * np.abs(totals))
        failing = np.isfinite(errors) & (errors > tols)
        if not np.isfinite(totals[~failing]).all():
            raise QuadratureError("integrand produced non-finite values")
        if failing.any():
            panels, totals = self._refine(c, panels, np.flatnonzero(failing), totals, high, err)
            self._panels = panels
            dens = np.exp(family.node_log_density(c, panels.stat))  # at the refined nodes
        n = panels.w_high.size
        dens, score = dens[:n], family.node_score(c, panels.stat[:n])
        grad = dens * score
        terms = [totals, panels.high_sums(grad),
                 panels.high_sums(grad * score + dens * family.log_density_hess(c))]
        return [self._scale * values for values in terms]

    def _cut_at_peak(self, c: float, panels: _Panels) -> _Panels:
        """The panels with the family's peak knots at c cut into those wider than their spacing."""
        peak = self.family.peak_knots(c)
        if not (peak.size and len(panels.lo)):
            return panels
        width = float(np.diff(peak).min())
        if len(_split_at(panels.lo, panels.hi, peak, width)[0]) == len(panels.lo):
            return panels
        rules = panels.rules()
        for k, rule in enumerate(rules):
            lo, hi = _split_at(rule[0], rule[1], peak, width)
            if len(lo) > len(rule[0]):
                rules[k] = self._component_rule(self._weight_fns[k], lo, hi)
        return _Panels.pack(rules)

    def _refine(self, c: float, panels: _Panels, failing: np.ndarray, totals: np.ndarray,
                high: np.ndarray, err: np.ndarray) -> tuple[_Panels, np.ndarray]:
        """Bisect the failing components at c; the new panels and every component's total."""
        family = self.family
        peak = family.peak_knots(c)
        rules, ends = panels.rules(), panels.ends
        totals = totals.copy()
        for k in failing:
            g, s, e = self._weight_fns[k], panels.starts[k], ends[k]
            integrand = lambda x: family.density(c, x) * g(x)
            try:
                totals[k], lo, hi = refine_panels(integrand, panels.lo[s:e], panels.hi[s:e],
                                                  self.quad, (high[s:e], err[s:e]))
            except QuadratureError:
                # panels refined at earlier c can stall where the compile-time
                # panels do not: refine once from those, as ``integrate`` does
                knots = self._knots[k]
                lo, hi = knots[:-1], knots[1:]
                if peak.size:
                    lo, hi = _split_at(lo, hi, peak, float(np.diff(peak).min()))
                if e - s == len(lo):  # no earlier refinement to undo
                    raise
                totals[k], lo, hi = refine_panels(integrand, lo, hi, self.quad)
            rules[k] = self._component_rule(g, lo, hi)
        return _Panels.pack(rules), totals
