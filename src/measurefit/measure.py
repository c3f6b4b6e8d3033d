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
    HIGH_ORDER,
    QUANTILE_LADDER,
    QuadratureError,
    QuadratureSpec,
    domain_knots,
    gauss_rule,
    integrate_panels,
    stop_rule,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _stirling_residual(a: float) -> float:
    """gammaln(a) minus its Stirling main terms, for large a."""
    inv = 1.0 / a
    return inv / 12.0 - inv**3 / 360.0 + inv**5 / 1260.0


def _each(fn, a):
    """fn of a float, or of each entry of an array of floats, by Python floats once per value."""
    if not isinstance(a, np.ndarray):
        return fn(a)
    values, at = np.unique(a, return_inverse=True)
    return np.array([fn(v) for v in values.tolist()])[at].reshape(a.shape)


def _gamma_log_pdf(a, rate, safe, saddle: bool) -> np.ndarray:
    """The gamma log density at safe > 0, its terms summed in place in the written order."""
    log_pdf, term = np.empty(safe.shape), np.empty(safe.shape)
    if saddle:
        # -a (delta - log1p(delta)) - log(safe) + log(a / 2 pi) / 2 - residual(a):
        # cancellation-free, where the naive form loses ~a*eps absolute accuracy,
        # which poisons quadrature error estimates for near-degenerate kernels
        np.multiply(rate, safe, out=log_pdf)
        log_pdf /= a
        log_pdf -= 1.0
        log_pdf -= np.log1p(log_pdf, out=term)
        log_pdf *= -a
        log_pdf -= np.log(safe, out=term)
        log_pdf += _each(lambda v: 0.5 * math.log(v / (2.0 * math.pi)), a)
        log_pdf -= _each(_stirling_residual, a)
        return log_pdf
    # a log(rate) + (a - 1) log(safe) - rate safe - gammaln(a)
    np.log(safe, out=log_pdf)
    log_pdf *= a - 1.0
    log_pdf += a * _each(math.log, rate)
    log_pdf -= np.multiply(rate, safe, out=term)
    log_pdf -= special.gammaln(a)
    return log_pdf


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
        safe = np.asarray(np.asarray(x, dtype=float) - self.shift)
        inside = safe > 0
        outside = None if inside.all() else ~inside
        if outside is not None:
            np.copyto(safe, 1.0, where=outside)
        a = self.shape
        if not isinstance(a, np.ndarray):  # the saddle-point form for large shapes
            log_pdf = _gamma_log_pdf(a, self.rate, safe, a > 1e4)
        else:  # a column kernel: each row takes its own form
            saddle = a[:, 0] > 1e4
            parts = [(rows, form) for rows, form in ((saddle, True), (~saddle, False)) if rows.any()]
            if len(parts) == 1:
                log_pdf = _gamma_log_pdf(a, self.rate, safe, parts[0][1])
            else:
                log_pdf = np.empty(safe.shape)
                for rows, form in parts:
                    log_pdf[rows] = _gamma_log_pdf(a[rows], self.rate[rows], safe[rows], form)
        np.exp(log_pdf, out=log_pdf)
        if outside is not None:
            np.copyto(log_pdf, 0.0, where=outside)
        return log_pdf

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


def _column_kernel(kernels, repeats=1):
    """One kernel whose fields are columns, kernel i's repeated ``repeats`` (or ``repeats[i]``) times.

    Its methods evaluate each row at that row of their argument. The kernels
    passed the checks, which are not run again. One kernel is returned as it
    is: its methods give every row the same values, and cost less.
    """
    if len(kernels) == 1:
        return kernels[0]
    cls = type(kernels[0])
    return _instances(cls, **{f.name: [np.repeat([getattr(k, f.name) for k in kernels],
                                                 repeats)[:, None]] for f in fields(cls)})[0]


def _kernel_knots(kernel, lo, quad: QuadratureSpec, cut: bool = False) -> list[np.ndarray]:
    """Panel knots on [lo_i, hi_i] per kernel row, hi_i where the row keeps ``tail_mass`` above.

    ``kernel`` is one kernel or a column kernel, ``lo`` a float per row. One
    ``ppf`` call gives each row its quantiles at ``tail_mass``, ``1 -
    tail_mass`` and the ladder. With ``cut``, ``max`` raises lo_i to the
    first, unless it is nan. A row's knots are empty when its domain is.
    """
    levels = np.concatenate([[quad.tail_mass, 1.0 - quad.tail_mass], QUANTILE_LADDER])
    q = kernel.ppf(levels).reshape(-1, levels.size)
    if cut:
        lo = list(map(max, lo, q[:, 0].tolist()))
    return domain_knots(lo, q[:, 1], q[:, 2:])


def density_knots(family, comps, kernel, quad: QuadratureSpec) -> list[np.ndarray]:
    """Panel knots of density components' truncated domains, as rows of ``kernel``'s.

    The domain is cut where the kernel keeps less than ``tail_mass`` outside,
    so it does not depend on the family parameter.
    """
    lo = [max(family.support_lower, comp.kernel.support_lower,
              -math.inf if comp.lower is None else comp.lower) for comp in comps]
    return _kernel_knots(kernel, lo, quad, cut=True)


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


class _PanelEntry(NamedTuple):
    """The compile-time panels of one density or ramp component, read-only.

    ``knots`` bound the panels (empty where the truncated domain is), and
    ``weights`` holds one row per panel of c-free node weights at its 21
    high-rule and then 10 low-rule Gauss nodes: the Gauss weight times the
    component's weight function and the family's density factor e^h there.
    The entries ``integrate`` makes hold knots only, ``weights`` None, until
    a compile adds its rows; those of components a compile takes in closed
    form stay so, and serve ``integrate`` at later c.
    """

    knots: np.ndarray
    weights: np.ndarray | None


# The panel entries of every live density or ramp component, one per
# (family, quadrature spec); a component's entries die with it. Equal
# components share entries, since an entry depends on nothing else.
_PANEL_MEMO: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _memo_knots(family, comp, quad: QuadratureSpec, knots_of) -> np.ndarray:
    """The component's c-free knots from its memo entry, or ``knots_of()`` kept in a new one."""
    entries = _PANEL_MEMO.setdefault(comp, {})
    if (family, quad) not in entries:
        entries[family, quad] = _PanelEntry(knots_of(), None)
    return entries[family, quad].knots


def _knots_integral(family, c: float, knots: np.ndarray, weight_fn,
                    quad: QuadratureSpec) -> float:
    """The integral of the family density at c times ``weight_fn`` over the knots; 0 if none.

    The family's peak knots at c that fall inside are added: a kernel much
    wider than the family puts the family's peak inside one wide panel, where
    the Gauss nodes can miss it. These knots depend on c, so the
    compile-time knots leave them out.
    """
    if not len(knots):
        return 0.0
    peak = family.peak_knots(c)
    knots = np.concatenate([knots, peak[(peak > knots[0]) & (peak < knots[-1])]])
    return integrate_panels(lambda x: family.density(c, x) * weight_fn(x), knots, quad)


def _density_component_integral(family, c: float, comp: WeightedDensity,
                                quad: QuadratureSpec) -> float:
    knots = _memo_knots(family, comp, quad,
                        lambda: density_knots(family, [comp], comp.kernel, quad)[0])
    return comp.weight * _knots_integral(family, c, knots, comp.kernel.pdf, quad)


def _ramp_component_integral(family, c: float, comp: CdfRamp,
                             quad: QuadratureSpec) -> float:
    # integral of f_c * G == survival of the family at the cut minus the
    # integral of f_c * (1 - G); the second factor decays like the kernel
    # survival, which makes the domain truncatable.
    cut = ramp_cut(family, comp, quad)  # None where the cut, and so the knots, move with c
    lo = ramp_cut(family, comp, quad, c) if cut is None else cut
    knots_of = lambda: _kernel_knots(comp.kernel, lo, quad)[0]
    knots = knots_of() if cut is None else _memo_knots(family, comp, quad, knots_of)
    return float(family.survival(c, lo)) - _knots_integral(family, c, knots, comp.kernel.sf, quad)


def integrate(family, c: float, measure: RandomMeasure,
              quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Integral of the family density against the measure.

    Dirac atoms evaluate the density, constant tails use the analytic
    survival function, density and ramp components go through adaptive
    quadrature with tail truncation, on knots kept in ``_PANEL_MEMO`` while
    the component lives. Quadrature failure raises rather than returning a
    silently wrong value.
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
_NO_KNOTS = np.empty(0)
_NO_ROWS = gauss_rule(_NO_KNOTS, _NO_KNOTS)  # t and weights of no panels, (0 x 31) each


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


def _grouped(pairs) -> dict:
    """The values of ``(key, value)`` pairs listed by key, in order."""
    groups = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return groups


class _Panels(NamedTuple):
    """A rule's panels as one flat table: row i is panel [lo_i, hi_i] of component ``comp[i]``.

    Rows are in component order, and every component has at least one. ``t``
    holds the node statistic and ``w`` the c-free weights at each row's 21
    high-rule and then 10 low-rule Gauss nodes, each a C-contiguous (rows x 31)
    array, so products over all nodes run on contiguous memory.
    """

    comp: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    t: np.ndarray
    w: np.ndarray


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

    The panels are one flat table, ``_Panels``. The compile, the peak cut
    and refinement get new rows from one builder, ``_node_rows``: one
    ``gauss_rule``, ``node_form`` and kernel-group weight-function call over
    (component, lo, hi) rows, whose t and weights the table keeps as the two
    (rows x 31) arrays it returns. A component's new rows follow its kept ones.

    A panel component's compile-time knots and node weights depend only on
    the component, the family and the ``QuadratureSpec``, so they are
    computed once per live component and kept in ``_PANEL_MEMO`` (knots by
    one ``ppf`` call per kernel group), where a later rule on the same or
    equal components reads them, bit-identical to a fresh compile. An entry
    dies with its component, and nothing the rule refines is written back.

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
    ``max(abs_tol, rel_tol * |integral|)``. The components that fail are
    bisected together, round by round, by that function's rules and its
    ``stop_rule``, on the node path: only the new halves are built and
    evaluated, and the rule keeps the refined table for later c. Where a
    table refined at earlier c breaks the stop rule, the rule drops every
    refinement, rebuilds the compile-time rows from the knots and refines
    once more, which gives a fresh rule's values; only a table with nothing
    to drop raises. So a rule's history never makes it fail where a fresh
    rule succeeds. No evaluation changes a table in place.
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
        closed-form terms and the panels, kernels, knots and scales of each
        measure drawn at least once, in this rule's order, and maps each
        index to its measure. Every value of a measure is computed from
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
        rule._kernels = [x for x, k in zip(self._kernels, kept) if k]
        rule._knots = [x for x, k in zip(self._knots, kept) if k]
        rule._owner = new_slot[self._owner[kept]]
        comp, *columns = self._panels
        rows = kept[comp]
        rule._panels = _Panels((np.cumsum(kept) - 1)[comp[rows]], *(x[rows] for x in columns))
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
                    comps.append((slot, comp.weight, comp))
            elif isinstance(comp, CdfRamp):
                lo = ramp_cut(family, comp, quad)
                if lo is None:
                    # both normal: P(Y <= X) for X ~ N(c, sigma1^2), Y ~ N(mean, sd^2)
                    kernel = comp.kernel
                    mixed["ramp"].append((slot, kernel.mean, math.hypot(family.sigma1, kernel.sd)))
                    continue
                mixed["tail"].append((slot, lo, 1.0))
                comps.append((slot, -1.0, comp))
            else:
                raise TypeError(f"unknown measure component {comp!r}")

    def _compile_panels(self, comps) -> None:
        """Compile the panels of the components ``(slot, scale, comp)``.

        Knots and node weights come from ``_PANEL_MEMO``, missing knots from
        ``_group_knots`` per kernel group and missing weights from ``_node_rows``;
        every step is elementwise, so an entry equals a one-component compile's
        bit for bit. Empty domains get no panels; without panels no builder runs.
        """
        key = (self.family, self.quad)
        entries = [_PANEL_MEMO.get(comp, {}).get(key) for *_, comp in comps]
        knots = {k: entry.knots for k, entry in enumerate(entries) if entry}
        kinds = [(type(comp), type(comp.kernel)) for *_, comp in comps]
        missing = _grouped((kinds[k], k) for k, entry in enumerate(entries) if entry is None)
        for (kind, _), ks in missing.items():  # by kernel group
            knots.update(zip(ks, self._group_knots(kind, [comps[k][2] for k in ks])))
        new = [entry is None or entry.weights is None for entry in entries]
        kept = [k for k in range(len(comps)) if len(knots[k])]
        self._scale = np.array([comps[k][1] for k in kept], dtype=float)
        self._kernels = [(kinds[k], comps[k][2].kernel) for k in kept]
        self._knots = [knots[k] for k in kept]  # the compile-time panels
        self._owner = np.array([comps[k][0] for k in kept], dtype=np.intp)
        comp, lo, hi = self._knot_rows()
        t, weights = self._node_rows(comp, lo, hi, np.array(new)[kept]) if kept else _NO_ROWS
        ends = np.cumsum(np.bincount(comp, minlength=len(kept))).tolist()
        own = {k: weights[s:e] for k, s, e in zip(kept, [0, *ends], ends)}
        for k, (*_, c) in enumerate(comps):
            if new[k]:  # the new rows are the entry's
                rows = own.get(k, weights[:0]).copy()  # not a view that keeps all weights alive
                rows.flags.writeable = False
                _PANEL_MEMO.setdefault(c, {})[key] = _PanelEntry(knots[k], rows)
            elif k in own:
                own[k][:] = entries[k].weights
        self._panels = _Panels(comp, lo, hi, t, weights)

    def _knot_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(comp, lo, hi) of the compile-time panels, the rows of ``_knots``."""
        comp = np.repeat(np.arange(len(self._knots)), [len(x) - 1 for x in self._knots])
        lo = np.concatenate([_NO_KNOTS, *(x[:-1] for x in self._knots)])
        hi = np.concatenate([_NO_KNOTS, *(x[1:] for x in self._knots)])
        return comp, lo, hi

    def _group_knots(self, kind, group) -> list[np.ndarray]:
        """The compile-time knots of a kernel group's densities, or ramps with a finite cut."""
        family, quad = self.family, self.quad
        kernel = _column_kernel([comp.kernel for comp in group])
        if kind is WeightedDensity:
            return density_knots(family, group, kernel, quad)
        return _kernel_knots(kernel, [ramp_cut(family, comp, quad) for comp in group], quad)

    def _node_rows(self, comp, lo, hi, weigh=True) -> tuple[np.ndarray, np.ndarray]:
        """t and c-free weights at the 31 Gauss nodes of panels [lo_i, hi_i] of components comp_i.

        ``comp`` is nondecreasing. A weight is the Gauss weight times e^h and, for
        components ``weigh`` flags (one flag, or one per component), the weight function.
        """
        nodes, weights = gauss_rule(lo, hi)
        counts = np.bincount(comp)  # each component's rows
        weighed = np.flatnonzero(counts * weigh).tolist()
        for group, ks in _grouped((self._kernels[k][0], k) for k in weighed).items():
            rows = _EVERY if counts[ks].sum() == len(lo) else np.isin(comp, ks)
            kernel = _column_kernel([self._kernels[k][1] for k in ks], counts[ks])
            weight_fn = kernel.pdf if group[0] is WeightedDensity else kernel.sf  # sf for a ramp
            weights[rows] *= weight_fn(nodes[rows])
        t, e_h = self.family.node_form(nodes)
        # the weights the rule keeps come last, so the temporaries freed below
        # them leave room for those of its evaluations
        return t, np.multiply(weights, e_h)

    def _joined(self, panels: _Panels, keep, comp, lo, hi, c=None, part=None):
        """The rows ``keep`` of the panels and new rows (comp_i, lo_i, hi_i), by component.

        A component's new rows follow its kept ones: the rows are sorted stably by
        component, the rows not kept given one past the last and left out. ``comp``
        is nondecreasing. Given ``part`` of the panels at c (``_part``), returns the
        joined rows' part with them, of which only the new rows' is computed.
        """
        old_comp, *old = panels
        key = np.concatenate([np.where(keep, old_comp, len(self._knots)), comp])
        order = np.argsort(key, kind="stable")[:len(comp) + np.count_nonzero(keep)]
        new = (comp, lo, hi, *self._node_rows(comp, lo, hi))
        joined = _Panels(*(np.concatenate([a, b])[order] for a, b in zip((old_comp, *old), new)))
        if part is None:
            return joined
        return joined, np.concatenate([part, self._part(c, *new[3:])])[order]

    def _part(self, c: float, t: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The family density at c times the weight, at nodes of statistic t and weight w."""
        part = np.exp(self.family.node_log_density(c, t))  # the node density over e^h,
        part *= w  # which the weights carry
        return part

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
        """I, I' and I'' of the panel components, read off the table ``_accepted`` at c.

        With ``part`` the node density times the weight and s the node score, I
        sums part over the high-rule nodes, I' sums part s and I'' part s^2 plus
        score' I. Where a table refined at earlier c fails, every refinement is
        dropped: the table is rebuilt from the compile-time knots and accepted
        once more, as a fresh rule's would be.
        """
        family, h = self.family, HIGH_ORDER
        try:
            panels, part, totals, starts = self._accepted(c)
        except QuadratureError:
            comp, lo, hi = self._knot_rows()
            if len(lo) == self.panels:  # no refinement to drop
                raise
            self._panels = _Panels(comp, lo, hi, *self._node_rows(comp, lo, hi))
            panels, part, totals, starts = self._accepted(c)
        score = family.node_score(c, panels.t[:, :h])
        part = np.multiply(part[:, :h], score, out=part[:, :h])  # part s
        score *= part  # part s^2
        grad, hess = (np.add.reduceat(v.sum(axis=1), starts) for v in (part, score))
        hess += family.log_density_hess(c) * totals
        return [self._scale * values for values in (totals, grad, hess)]

    def _cut_at_peak(self, c: float, panels: _Panels) -> _Panels:
        """The panels with the family's peak knots at c cut into those wider than their spacing."""
        peak, lo, hi = self.family.peak_knots(c), panels.lo, panels.hi
        if not (peak.size and len(lo)):
            return panels
        inside = np.searchsorted(peak, hi, "left") - np.searchsorted(peak, lo, "right")
        wide = (inside > 0) & (hi - lo > np.diff(peak).min(initial=math.inf))
        if not wide.any():
            return panels
        cuts = [np.concatenate(([a], peak[(peak > a) & (peak < b)], [b]))
                for a, b in zip(lo[wide], hi[wide])]
        return self._joined(panels, ~wide, np.repeat(panels.comp[wide], inside[wide] + 1),
                            np.concatenate([p[:-1] for p in cuts]),
                            np.concatenate([p[1:] for p in cuts]))

    def _accepted(self, c: float) -> tuple:
        """The table that meets the tolerance at c, its ``_part`` and each component's I.

        The peak cut at c comes first. Then every component is checked as in
        ``refine_panels``: its high-rule sum is accepted when its summed error
        ``|high - low|`` is within ``max(abs_tol, rel_tol * |integral|)``. Each
        round bisects, in every failing component at once, the panels holding
        more than their share of its tolerance, or else its worst panel, and
        ``stop_rule`` keeps each component's budget and stall count. Only the
        halves are built and evaluated; a refined table replaces the rule's.
        """
        quad, h, n = self.quad, HIGH_ORDER, len(self._knots)
        panels = self._cut_at_peak(c, self._panels)
        part = self._part(c, panels.t, panels.w)
        prev, stalls, used = np.full(n, math.inf), np.zeros(n, np.intp), np.zeros(n, np.intp)
        while True:
            starts = np.searchsorted(panels.comp, np.arange(n))  # each component's first row
            high = part[:, :h].sum(axis=1)
            err = np.abs(high - part[:, h:].sum(axis=1))
            totals = np.add.reduceat(high, starts)
            errors = np.add.reduceat(err, starts)
            tols = np.maximum(quad.abs_tol, quad.rel_tol * np.abs(totals))
            failing = np.isfinite(errors) & (errors > tols)
            if not np.isfinite(totals[~failing]).all():
                raise QuadratureError("integrand produced non-finite values")
            ks = np.flatnonzero(failing)
            if not ks.size:
                break
            rows = np.bincount(panels.comp, minlength=n)  # per component
            bad = failing[panels.comp] & (err > (tols / (2 * rows))[panels.comp])
            for k in ks[np.bincount(panels.comp[bad], minlength=n)[ks] == 0]:  # the worst panel
                bad[starts[k] + np.argmax(err[panels.comp == k])] = True
            used += np.bincount(panels.comp[bad], minlength=n)
            for k in ks.tolist():
                stalls[k] = stop_rule(errors[k], tols[k], prev[k], stalls[k], used[k], quad)
            prev = errors
            lo, hi, comp = panels.lo[bad], panels.hi[bad], panels.comp[bad]
            mid = 0.5 * (lo + hi)
            # by component and, as in refine_panels, its lower halves before its upper ones
            halves = np.argsort(np.concatenate([comp, comp]), kind="stable")
            panels, part = self._joined(panels, ~bad, np.repeat(comp, 2),
                                        np.concatenate([lo, mid])[halves],
                                        np.concatenate([mid, hi])[halves], c, part)
        if used.any():
            self._panels = panels
        return panels, part, totals, starts

