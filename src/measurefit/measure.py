"""Measure-valued datapoints and integration of densities against them.

A datapoint is a RandomMeasure: an ordered mix of Dirac atoms, weighted
proper density kernels, CDF ramps (improper components whose Lebesgue
density is a kernel's CDF) and constant improper tails. Right-censoring,
measurement uncertainty and the paid-to-ultimate bridging measures are all
constructed from these four pieces.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from types import MappingProxyType

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


# ---------------------------------------------------------------------------
# kernels: proper distributions usable inside measure components


@dataclass(frozen=True)
class NormalKernel:
    mean: float
    sd: float

    def __post_init__(self) -> None:
        if not (self.sd > 0 and math.isfinite(self.sd) and math.isfinite(self.mean)):
            raise ValueError("normal kernel needs finite mean and positive sd")

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

    def __post_init__(self) -> None:
        if not (self.shape > 0 and self.rate > 0):
            raise ValueError("gamma kernel needs positive shape and rate")
        if not math.isfinite(self.shift):
            raise ValueError("gamma kernel shift must be finite")

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

    def __post_init__(self) -> None:
        if not math.isfinite(self.location):
            raise ValueError("dirac atom location must be finite")


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


def _component_lower(comp: MeasureComponent) -> float:
    if isinstance(comp, DiracAtom):
        return comp.location
    if isinstance(comp, WeightedDensity):
        lo = comp.kernel.support_lower
        return max(lo, comp.lower) if comp.lower is not None else lo
    if isinstance(comp, CdfRamp):
        return comp.kernel.support_lower
    return comp.lower


@dataclass(frozen=True)
class RandomMeasure:
    """One datapoint: an ordered collection of measure components."""

    components: tuple[MeasureComponent, ...]
    support_lower: float = field(default=math.nan)

    def __post_init__(self) -> None:
        comps = self.components
        if type(comps) is not tuple:
            comps = tuple(comps)
            object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("a random measure needs at least one component")
        if math.isnan(self.support_lower):
            # most measures hold one component: no min() over a generator
            lower = (_component_lower(comps[0]) if len(comps) == 1
                     else min(_component_lower(c) for c in comps))
            object.__setattr__(self, "support_lower", lower)
        else:
            for c in comps:
                if _component_lower(c) < self.support_lower - 1e-12:
                    raise ValueError(
                        f"component {c!r} extends below declared support "
                        f"lower bound {self.support_lower}"
                    )


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


class KernelSample(Sequence):
    """A sample of one-component measures that also carries them as columns.

    ``kind`` names the component every measure holds, and ``columns`` maps
    its fields to read-only float arrays with one entry per measure:

    - ``"dirac"``: ``location`` of a ``DiracAtom``;
    - ``"gamma"``: ``shape``, ``rate`` and ``shift`` of a unit-weight
      ``GammaKernel`` density;
    - ``"normal"``: ``mean`` and ``sd`` of a unit-weight ``NormalKernel``
      density.

    Scalar columns broadcast to the sample length. The measures are built
    once, on construction, by the validating constructors, so an invalid
    value raises their ``ValueError`` and iteration costs nothing. A
    ``PanelRule`` takes the columns as its closed-form terms rather than
    inspecting the measures. Two samples are equal when their measures are.
    """

    _FIELDS = {"dirac": ("location",), "gamma": ("shape", "rate", "shift"),
               "normal": ("mean", "sd")}

    __slots__ = ("kind", "columns", "_measures")

    def __init__(self, kind: str, **columns) -> None:
        fields = self._FIELDS.get(kind)
        if fields is None:
            raise ValueError(f"unknown sample kind {kind!r}")
        if set(columns) != set(fields):
            raise ValueError(f"a {kind} sample needs the columns {', '.join(fields)}")
        arrays = np.broadcast_arrays(*(np.asarray(columns[f], dtype=float) for f in fields))
        if arrays[0].ndim != 1:
            raise ValueError("sample columns must be one-dimensional")
        frozen = {}
        for name, values in zip(fields, arrays):
            values = values.copy()
            values.flags.writeable = False
            frozen[name] = values
        # Python floats, not numpy scalars, inside the measures
        rows = zip(*(values.tolist() for values in frozen.values()))
        if kind == "dirac":
            measures = tuple(RandomMeasure((DiracAtom(x),)) for (x,) in rows)
        elif kind == "gamma":
            measures = tuple(RandomMeasure((WeightedDensity(1.0, GammaKernel(a, b, s)),))
                             for a, b, s in rows)
        else:
            measures = tuple(RandomMeasure((WeightedDensity(1.0, NormalKernel(u, sd)),))
                             for u, sd in rows)
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


def ramp_domain(family, comp: CdfRamp, quad: QuadratureSpec, c: float | None = None):
    """Lower cut and panel knots (None when empty) of a ramp's truncated domain.

    The cut is the larger of the family and kernel support bounds. Only when
    both are unbounded below does it depend on the parameter: it is then the
    family's low cutoff at ``c``, and with ``c`` None the result is None.
    """
    lo = max(family.support_lower, comp.kernel.support_lower)
    if lo == -math.inf:
        if c is None:
            return None
        lo = family.low_cutoff(c, quad.tail_mass)
    return lo, _kernel_knots(comp.kernel, lo, quad)


def _with_peak_knots(family, c: float, knots: np.ndarray) -> np.ndarray:
    """The knots plus those of the family's peak at c that fall inside them.

    A kernel much wider than the family puts the family's peak inside one
    wide panel, where the Gauss nodes can miss it. These knots depend on c,
    so ``density_knots`` and ``ramp_domain`` leave them out.
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
    lo, knots = ramp_domain(family, comp, quad, c)
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


def closed_form_terms(family, kind: str, c: float, columns, order: int = 2) -> tuple:
    """W = -log I, Z = dW/dc and Z' = dZ/dc of one-term measures at c, up to ``order``.

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
        z = -np.asarray(family.log_density_grad(c, np.maximum(x, lower))) if order else None
        dz = np.full(np.shape(w), -family.log_density_hess(c)) if order > 1 else None
    elif kind == "gamma":
        shape, rate, shift = columns["shape"], columns["rate"], columns["shift"]
        w = -log_w - math.log(c) + c * shift + shape * np.log1p(c / rate)
        z = shift + shape / (rate + c) - 1.0 / c if order else None
        dz = 1.0 / (c * c) - shape / (rate + c) ** 2 if order > 1 else None
    else:
        mean = columns["mean"]
        s2 = family.sigma1**2 + columns["sd"] ** 2
        w = -log_w + 0.5 * np.log(2.0 * math.pi * s2) + (mean - c) ** 2 / (2.0 * s2)
        z = (c - mean) / s2 if order else None
        dz = 1.0 / s2 if order > 1 else None
    return (w, z, dz)[:order + 1]


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


class PanelRule:
    """The measures of one sample compiled for evaluation at many c.

    Within a fit the measures do not depend on the parameter, only the family
    density does. So each distinct measure is compiled once into terms:
    closed-form terms (``closed_form_terms``), survival terms (constant tails
    and ramp cuts), exact ramps (a normal ramp under the normal location is
    Phi((c - mean) / s), s^2 = sigma1^2 + sd^2) and quadrature panels for every
    other density or ramp, whose 21- and 10-point Gauss nodes carry c-free
    weights (kernel pdf for densities, kernel sf for ramps). A
    ``KernelSample`` of closed-form terms hands over its columns as they are.

    ``losses(c)`` returns W = -log I(c), Z = dW/dc and Z' = dZ/dc of every
    measure. A measure of one closed-form term reads them off that term. Any
    other sums I, I' and I'' over its terms, which ``integrals(c)``,
    ``integrals_with_grad(c)`` and ``integrals_with_hess(c)`` return: a
    closed-form term adds e^-W, -Z e^-W and (Z^2 - Z') e^-W, an atom or a
    panel node its density times 1, the score and score^2 + score'. All
    panel nodes share one family density call.

    At every c each panel component's integral is accepted only under the
    rule of ``refine_panels``: summed error ``|high - low|`` within
    ``max(abs_tol, rel_tol * |integral|)``. A component that fails is
    bisected from its current panels and keeps its refined panels for later
    c; where that fails, it is refined once more from its compile-time
    panels before the error is raised, so a rule's history never makes it
    fail where ``integrate`` succeeds. Under a family whose density peaks
    inside its support (the normal location) the peak knots at c are cut
    into every panel wider than their spacing before the check, since Gauss
    nodes straddling a narrow peak agree on a wrong value. The cut serves
    that c only, unless a refinement at c repacks the rule, which keeps it.
    """

    def __init__(self, family, measures, quad: QuadratureSpec = DEFAULT_QUAD) -> None:
        self.family = family
        self.quad = quad
        tails, ramps, comps = [], [], []
        direct = {kind: [] for kind in KernelSample._FIELDS}  # measures of one closed-form term
        mixed = {kind: [] for kind in KernelSample._FIELDS}  # closed-form terms of other measures
        linear: list[int] = []
        if isinstance(measures, KernelSample) and self._covers(measures):
            self._slot_of, self._n_slots = _EVERY, len(measures)
            self._direct = [(measures.kind, measures.columns, np.arange(len(measures)))]
        else:
            # a measure repeated in the sample (a bootstrap resample) is compiled once
            unique = {id(m): m for m in measures}
            self._slot_of = _EVERY
            if len(unique) < len(measures):
                slots = {key: slot for slot, key in enumerate(unique)}
                self._slot_of = np.array([slots[id(m)] for m in measures], dtype=np.intp)
            self._n_slots = len(unique)
            for slot, measure in enumerate(unique.values()):
                components = measure.components
                if len(components) == 1 and (term := self._closed_form(components[0], slot)):
                    direct[term[0]].append(term[1])
                else:
                    linear.append(slot)
                    self._compile(components, slot, mixed, tails, ramps, comps)
            self._direct = self._groups(direct)
        self._mixed = self._groups(mixed)
        self._linear = np.array(linear, dtype=np.intp)
        self._tail_lower = np.array([x for _, x, _ in tails], dtype=float)
        self._tail_height = np.array([h for _, _, h in tails], dtype=float)
        self._ramp_mean = np.array([u for _, u, _ in ramps], dtype=float)
        self._ramp_sd = np.array([s for _, _, s in ramps], dtype=float)
        self._scale = np.array([w for _, w, _, _ in comps], dtype=float)
        self._weight_fns = [g for _, _, g, _ in comps]
        self._knots = [k for _, _, _, k in comps]  # the compile-time panels
        # owners of the terms _panel_terms returns: survival terms, exact ramps, components
        self._owner = np.array([t[0] for t in tails + ramps + comps], dtype=np.intp)
        self._pack([self._component_rule(g, k[:-1], k[1:]) for _, _, g, k in comps])

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

    @staticmethod
    def _groups(terms: dict) -> list:
        """``(kind, columns, slots)`` of each kind that has terms."""
        groups = []
        for kind, rows in terms.items():
            if rows:
                slots, *values = zip(*rows)
                fields = KernelSample._FIELDS[kind] + ("log_weight",)
                columns = {f: np.array(v, dtype=float) for f, v in zip(fields, values)}
                groups.append((kind, columns, np.array(slots, dtype=np.intp)))
        return groups

    def _compile(self, components, slot: int, mixed, tails, ramps, comps) -> None:
        """Append the terms of a measure that is not one closed-form term."""
        family, quad = self.family, self.quad
        for comp in components:
            term = self._closed_form(comp, slot)
            if term is not None:
                mixed[term[0]].append(term[1])
            elif isinstance(comp, ConstantTail):
                if comp.height > 0:
                    tails.append((slot, comp.lower, comp.height))
            elif isinstance(comp, WeightedDensity):
                if comp.weight > 0:
                    knots = density_knots(family, comp, quad)
                    if knots is not None:
                        comps.append((slot, comp.weight, comp.kernel.pdf, knots))
            elif isinstance(comp, CdfRamp):
                domain = ramp_domain(family, comp, quad)
                if domain is None:
                    # both normal: P(Y <= X) for X ~ N(c, sigma1^2), Y ~ N(mean, sd^2)
                    kernel = comp.kernel
                    ramps.append((slot, kernel.mean, math.hypot(family.sigma1, kernel.sd)))
                    continue
                lo, knots = domain
                tails.append((slot, lo, 1.0))
                if knots is not None:
                    comps.append((slot, -1.0, comp.kernel.sf, knots))
            else:
                raise TypeError(f"unknown measure component {comp!r}")

    @staticmethod
    def _component_rule(weight_fn, lo: np.ndarray, hi: np.ndarray):
        """Panels, Gauss nodes and c-free weights of one component."""
        x_high, w_high, x_low, w_low = gauss_rule(lo, hi)
        return lo, hi, x_high, w_high * weight_fn(x_high), x_low, w_low * weight_fn(x_low)

    def _pack(self, rules) -> None:
        """Concatenate the components' rules into the flat arrays ``_panel_terms`` reads."""
        lo, hi, x_high, w_high, x_low, w_low = (
            [np.concatenate(col) for col in zip(*rules)] if rules else _NO_PANELS)
        self._starts = np.cumsum([0] + [len(r[0]) for r in rules], dtype=np.intp)[:-1]
        self._lo, self._hi, self._w_high, self._w_low = lo, hi, w_high, w_low
        # one node array for one density call: high, then low rule nodes
        self._nodes = np.concatenate([x_high.ravel(), x_low.ravel()])
        self._high, self._low = slice(0, w_high.size), slice(w_high.size, None)

    @property
    def panels(self) -> int:
        """Number of quadrature panels currently compiled."""
        return len(self._lo)

    def losses(self, c: float, order: int = 2) -> tuple:
        """W = -log I(c) of every measure and its first ``order`` derivatives, in sample order."""
        self.family.check_param(c)
        parts = [(slots, closed_form_terms(self.family, kind, c, columns, order))
                 for kind, columns, slots in self._direct]
        if self._linear.size:
            values, *derivs = (s[self._linear] for s in self._sums(c, order, self._mixed))
            with np.errstate(divide="ignore", invalid="ignore"):
                z = -derivs[0] / values if order else None
                dz = z * z - derivs[1] / values if order > 1 else None
                w = -np.log(np.maximum(values, 0.0))
            parts.append((self._linear, (w, z, dz)[:order + 1]))
        if len(parts) == 1:  # one part holds every measure, in slot order
            out = parts[0][1]
        else:
            out = [np.empty(self._n_slots) for _ in range(order + 1)]
            for slots, terms in parts:
                for values, term in zip(out, terms):
                    values[slots] = term
        return tuple(values[self._slot_of] for values in out)

    def integrals(self, c: float) -> np.ndarray:
        """Integral of the family density against each measure, in sample order."""
        return self._integrals(c, 0)[0]

    def integrals_with_grad(self, c: float) -> tuple[np.ndarray, np.ndarray]:
        """Integrals and their exact derivatives in c, in sample order."""
        return self._integrals(c, 1)

    def integrals_with_hess(self, c: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Integrals with their exact first and second derivatives in c, in sample order."""
        return self._integrals(c, 2)

    def _integrals(self, c: float, order: int) -> tuple:
        self.family.check_param(c)
        sums = self._sums(c, order, self._mixed + self._direct)
        return tuple(values[self._slot_of] for values in sums)

    def _sums(self, c: float, order: int, groups) -> list:
        """Per-slot I and its first ``order`` derivatives from the panel terms and ``groups``."""
        parts = [self._panel_terms(c, order)]
        parts += [self._term_sums(c, order, kind, columns) for kind, columns, _ in groups]
        owners = np.concatenate([self._owner, *(slots for _, _, slots in groups)])
        return [np.bincount(owners, np.concatenate(terms), minlength=self._n_slots)
                for terms in zip(*parts)]

    def _term_sums(self, c: float, order: int, kind: str, columns) -> list:
        """I and its first ``order`` derivatives of closed-form terms of one kind."""
        if kind == "dirac":  # atoms add the density itself
            x = columns["location"]
            return self._with_derivatives(c, order, x, self.family.density(c, x))
        w, z, dz = closed_form_terms(self.family, kind, c, columns)
        values = np.exp(-w)
        return [values, -z * values, (z * z - dz) * values][:order + 1]

    def _with_derivatives(self, c: float, order: int, x: np.ndarray, dens: np.ndarray) -> list:
        """The density at x with its first ``order`` derivatives: times score (score^2 + score')."""
        family = self.family
        out = [dens]
        if order:
            # nodes below the support carry zero density
            score = family.log_density_grad(c, np.maximum(x, family.support_lower))
            out.append(dens * score)
        if order > 1:
            out.append(out[1] * score + dens * family.log_density_hess(c))
        return out

    def _panel_terms(self, c: float, order: int) -> list:
        """I and its first ``order`` derivatives of the survival terms, ramps and panels."""
        uncut = self._cut_at_peak(c)
        cut = self._lo
        try:
            return self._panel_terms_packed(c, order)
        finally:
            if uncut is not None and self._lo is cut:  # no refinement kept the cut
                self._packed = uncut

    def _panel_terms_packed(self, c: float, order: int) -> list:
        family, quad = self.family, self.quad
        dens = family.density(c, self._nodes)
        high = (dens[self._high].reshape(self._w_high.shape) * self._w_high).sum(axis=1)
        low = (dens[self._low].reshape(self._w_low.shape) * self._w_low).sum(axis=1)
        err = np.abs(high - low)
        totals = np.add.reduceat(high, self._starts)
        errors = np.add.reduceat(err, self._starts)
        tols = np.maximum(quad.abs_tol, quad.rel_tol * np.abs(totals))
        failing = np.isfinite(errors) & (errors > tols)
        if not np.isfinite(totals[~failing]).all():
            raise QuadratureError("integrand produced non-finite values")
        if failing.any():
            totals = self._refine(c, np.flatnonzero(failing), totals, high, err)
            if order:
                dens = family.density(c, self._nodes)  # the nodes of the refined panels
        ramp_z = (c - self._ramp_mean) / self._ramp_sd
        terms = [(self._tail_height * family.survival(c, self._tail_lower),
                  special.ndtr(ramp_z), totals)]
        if order:
            node = self._with_derivatives(c, order, self._nodes[self._high], dens[self._high])
            ramp_pdf = np.exp(-0.5 * ramp_z * ramp_z) / (_SQRT_2PI * self._ramp_sd)
            terms.append((self._tail_height * family.survival_grad(c, self._tail_lower),
                          ramp_pdf, self._high_sums(node[1])))
        if order > 1:
            terms.append((self._tail_height * family.survival_hess(c, self._tail_lower),
                          -ramp_z * ramp_pdf / self._ramp_sd, self._high_sums(node[2])))
        return [np.concatenate([tails, ramps, self._scale * components])
                for tails, ramps, components in terms]

    def _high_sums(self, node_values: np.ndarray) -> np.ndarray:
        """Per-component high-rule sums of values given at the high-rule nodes."""
        per_panel = node_values.reshape(self._w_high.shape) * self._w_high
        return np.add.reduceat(per_panel.sum(axis=1), self._starts)

    def _rules(self) -> list:
        """The components' panels, nodes and weights, as ``_pack`` takes them."""
        x_high = self._nodes[self._high].reshape(self._w_high.shape)
        x_low = self._nodes[self._low].reshape(self._w_low.shape)
        ends = np.append(self._starts[1:], len(self._lo))
        return [(self._lo[s:e], self._hi[s:e], x_high[s:e], self._w_high[s:e],
                 x_low[s:e], self._w_low[s:e]) for s, e in zip(self._starts, ends)]

    _PACKED = ("_starts", "_lo", "_hi", "_w_high", "_w_low", "_nodes", "_high", "_low")

    @property
    def _packed(self) -> tuple:
        return tuple(getattr(self, name) for name in self._PACKED)

    @_packed.setter
    def _packed(self, state: tuple) -> None:
        for name, value in zip(self._PACKED, state):
            setattr(self, name, value)

    def _cut_at_peak(self, c: float):
        """Cut the family's peak knots at c into every panel wider than their spacing.

        Returns the packed state from before the cut, or None when nothing was cut.
        """
        peak = self.family.peak_knots(c)
        if not (peak.size and self.panels):
            return None
        width = float(np.diff(peak).min())
        if len(_split_at(self._lo, self._hi, peak, width)[0]) == self.panels:
            return None
        uncut = self._packed
        rules = self._rules()
        for k, rule in enumerate(rules):
            lo, hi = _split_at(rule[0], rule[1], peak, width)
            if len(lo) > len(rule[0]):
                rules[k] = self._component_rule(self._weight_fns[k], lo, hi)
        self._pack(rules)
        return uncut

    def _refine(self, c: float, failing: np.ndarray, totals: np.ndarray,
                high: np.ndarray, err: np.ndarray) -> np.ndarray:
        """Bisect the failing components at c, then pack all panels once."""
        family = self.family
        peak = family.peak_knots(c)
        rules = self._rules()
        ends = np.append(self._starts[1:], len(self._lo))
        totals = totals.copy()
        for k in failing:
            g, s, e = self._weight_fns[k], self._starts[k], ends[k]
            integrand = lambda x: family.density(c, x) * g(x)
            try:
                totals[k], lo, hi = refine_panels(integrand, self._lo[s:e], self._hi[s:e],
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
        self._pack(rules)
        return totals
