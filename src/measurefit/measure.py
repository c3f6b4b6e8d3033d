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
    value raises their ``ValueError`` and iteration costs nothing. Fitters
    read the columns rather than inspecting the measures. Two samples are
    equal when their measures are.
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


def _density_component_integral(family, c: float, comp: WeightedDensity,
                                quad: QuadratureSpec) -> float:
    knots = density_knots(family, comp, quad)
    if knots is None:
        return 0.0
    kernel = comp.kernel
    integrand = lambda x: family.density(c, x) * kernel.pdf(x)
    return comp.weight * integrate_panels(integrand, knots, quad)


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
    return base - integrate_panels(integrand, knots, quad)


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


class PanelRule:
    """The measures of one sample compiled for integration at many c.

    Within a fit the measures do not depend on the parameter, only the family
    density does. So each distinct measure is compiled once: atoms become
    nodes, constant tails and ramp cuts become survival terms, and each
    density or ramp component becomes quadrature panels whose 21- and
    10-point Gauss nodes carry c-free weights (Gauss weight times kernel pdf
    for densities, times kernel sf for ramps). A ramp with no finite cut (a
    normal kernel under the normal-location family) is the exact term
    Phi((c - mean) / s) with s^2 = sigma1^2 + sd^2. ``integrals(c)`` then
    costs one family density call on all nodes.

    At every c each component's integral is accepted only under the rule of
    ``refine_panels``: summed error ``|high - low|`` within
    ``max(abs_tol, rel_tol * |integral|)``. A component that fails is
    bisected by ``refine_panels`` from its current panels, with the same
    budget and errors, and keeps its refined panels for later c. Where that
    fails from panels refined at earlier c, the component is refined once
    more from its compile-time panels before the error is raised, so a
    rule's history never makes it fail where ``integrate`` succeeds.
    ``integrals_with_grad(c)`` also returns the exact derivatives I'(c), read
    off the panels accepted for I(c): the density times its score at the
    same nodes, and the parameter derivative of each survival term.
    """

    def __init__(self, family, measures, quad: QuadratureSpec = DEFAULT_QUAD) -> None:
        self.family = family
        self.quad = quad
        # a measure repeated in the sample (a bootstrap resample) is compiled once
        slots: dict[int, int] = {}
        unique: list[RandomMeasure] = []
        for m in measures:
            if id(m) not in slots:
                slots[id(m)] = len(unique)
                unique.append(m)
        self._slot_of = np.array([slots[id(m)] for m in measures], dtype=np.intp)
        self._n_slots = len(unique)
        atoms, tails, ramps, comps = [], [], [], []
        for slot, measure in enumerate(unique):
            self._compile(measure, slot, atoms, tails, ramps, comps)
        self._atom_x = np.array([x for _, x in atoms], dtype=float)
        self._tail_lower = np.array([x for _, x, _ in tails], dtype=float)
        self._tail_height = np.array([h for _, _, h in tails], dtype=float)
        self._ramp_mean = np.array([u for _, u, _ in ramps], dtype=float)
        self._ramp_sd = np.array([s for _, _, s in ramps], dtype=float)
        self._scale = np.array([w for _, w, _, _ in comps], dtype=float)
        self._weight_fns = [g for _, _, g, _ in comps]
        self._knots = [k for _, _, _, k in comps]  # the compile-time panels
        # owners of the terms _evaluate sums: atoms, survival terms, exact ramps, components
        self._owner = np.array([t[0] for t in atoms + tails + ramps + comps], dtype=np.intp)
        self._pack([self._component_rule(g, k[:-1], k[1:]) for _, _, g, k in comps])

    def _compile(self, measure: RandomMeasure, slot: int, atoms, tails, ramps, comps) -> None:
        """Append one measure's atoms, survival terms, exact ramps and panel components."""
        family, quad = self.family, self.quad
        for comp in measure.components:
            if isinstance(comp, DiracAtom):
                atoms.append((slot, comp.location))
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
        """Concatenate the components' rules into the flat arrays ``integrals`` reads."""
        empty = np.empty(0)
        lo, hi, x_high, w_high, x_low, w_low = (
            np.concatenate(col) for col in zip((empty, empty, *gauss_rule(empty, empty)),
                                               *rules))
        self._starts = np.cumsum([0] + [len(r[0]) for r in rules], dtype=np.intp)[:-1]
        self._lo, self._hi, self._w_high, self._w_low = lo, hi, w_high, w_low
        # one node array for one density call: atoms, then high and low rule nodes
        self._nodes = np.concatenate([self._atom_x, x_high.ravel(), x_low.ravel()])
        split = len(self._atom_x) + w_high.size
        self._high, self._low = slice(len(self._atom_x), split), slice(split, None)

    @property
    def panels(self) -> int:
        """Number of quadrature panels currently compiled."""
        return len(self._lo)

    def integrals(self, c: float) -> np.ndarray:
        """Integral of the family density against each measure, in sample order."""
        return self._evaluate(c, grad=False)[0]

    def integrals_with_grad(self, c: float) -> tuple[np.ndarray, np.ndarray]:
        """Integrals and their exact derivatives in c, in sample order."""
        return self._evaluate(c, grad=True)

    def _evaluate(self, c: float, grad: bool):
        family, quad = self.family, self.quad
        family.check_param(c)
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
            if grad:
                dens = family.density(c, self._nodes)  # the nodes of the refined panels
        n_atoms = len(self._atom_x)
        ramp_z = (c - self._ramp_mean) / self._ramp_sd
        terms = np.concatenate([
            dens[:n_atoms],
            self._tail_height * family.survival(c, self._tail_lower),
            special.ndtr(ramp_z),
            self._scale * totals,
        ])
        values = np.bincount(self._owner, terms, minlength=self._n_slots)[self._slot_of]
        if not grad:
            return values, None
        # density times score at the atoms and high-rule nodes; nodes below
        # the support carry zero density
        scored = self._nodes[:self._high.stop]
        dens_grad = dens[:len(scored)] * family.log_density_grad(
            c, np.maximum(scored, family.support_lower))
        high_grad = (dens_grad[self._high].reshape(self._w_high.shape) * self._w_high).sum(axis=1)
        grad_terms = np.concatenate([
            dens_grad[:n_atoms],
            self._tail_height * family.survival_grad(c, self._tail_lower),
            np.exp(-0.5 * ramp_z * ramp_z) / (_SQRT_2PI * self._ramp_sd),
            self._scale * np.add.reduceat(high_grad, self._starts),
        ])
        return values, np.bincount(self._owner, grad_terms, minlength=self._n_slots)[self._slot_of]

    def _refine(self, c: float, failing: np.ndarray, totals: np.ndarray,
                high: np.ndarray, err: np.ndarray) -> np.ndarray:
        """Bisect the failing components at c, then pack all panels once."""
        family = self.family
        x_high = self._nodes[self._high].reshape(self._w_high.shape)
        x_low = self._nodes[self._low].reshape(self._w_low.shape)
        ends = np.append(self._starts[1:], len(self._lo))
        rules = [(self._lo[s:e], self._hi[s:e], x_high[s:e], self._w_high[s:e],
                  x_low[s:e], self._w_low[s:e]) for s, e in zip(self._starts, ends)]
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
                if e - s == len(knots) - 1:  # no earlier refinement to undo
                    raise
                totals[k], lo, hi = refine_panels(integrand, knots[:-1], knots[1:], self.quad)
            rules[k] = self._component_rule(g, lo, hi)
        self._pack(rules)
        return totals
