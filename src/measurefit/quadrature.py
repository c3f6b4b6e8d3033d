"""Adaptive quadrature for smooth density-product integrands.

Panels are evaluated with nested 10/21-point Gauss-Legendre rules; the
difference of the two rules gives the local error estimate. Panels failing
the tolerance are bisected in batches. Integrands must accept numpy arrays
(all callers integrate products of vectorized densities), which keeps the
cost per integral at a handful of batched evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HIGH_ORDER = 21  # the 21-point rule's nodes come first, then the 10-point rule's
_X, _W = map(np.concatenate, zip(np.polynomial.legendre.leggauss(HIGH_ORDER),
                                 np.polynomial.legendre.leggauss(10)))


class QuadratureError(RuntimeError):
    """Subdivision budget exhausted before reaching the requested tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for measure integration.

    ``tail_mass`` is the survival-mass threshold used to truncate unbounded
    integration domains: the domain is cut where the kernel (or the family)
    keeps less than this much mass outside.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 400
    tail_mass: float = 1e-14

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")
        if not 0 < self.tail_mass < 1:
            raise ValueError("tail_mass must be in (0, 1)")


DEFAULT_QUAD = QuadratureSpec()


def gauss_rule(lo: np.ndarray, hi: np.ndarray):
    """Nodes and weights ``(x, w)`` of the 21- and 10-point Gauss rules on panels [lo_i, hi_i].

    Each has one row per panel, the first ``HIGH_ORDER`` entries of a row
    the 21-point rule's; a panel's two estimates of the integral of f are
    the sums of ``f(x) * w`` over the two parts of its row.
    """
    x = 0.5 * (hi - lo)[:, None]
    w = x * _W
    x = x * _X
    x += 0.5 * (lo + hi)[:, None]  # mid + half * x
    return x, w


def _panel_estimates(f, lo: np.ndarray, hi: np.ndarray):
    """High-order value and error estimate for each panel [lo_i, hi_i]."""
    x, w = gauss_rule(lo, hi)
    vals = f(x) * w
    vals_high = vals[:, :HIGH_ORDER].sum(axis=1)
    return vals_high, np.abs(vals_high - vals[:, HIGH_ORDER:].sum(axis=1))


def refine_panels(f, lo: np.ndarray, hi: np.ndarray, spec: QuadratureSpec,
                  estimates=None):
    """Bisect the panels [lo_i, hi_i] until the summed error meets the tolerance.

    The integral over the panels is accepted when the summed error estimate
    ``|high - low|`` is at most ``max(abs_tol, rel_tol * |integral|)``.
    ``estimates`` are the panels' values and errors from ``_panel_estimates``
    when the caller already has them. Returns the integral with the final
    panels ``(lo, hi)``. Raises QuadratureError when the subdivision budget
    runs out, the error estimate stalls, or the integrand is not finite,
    rather than returning a silently inaccurate value.
    """
    vals, errs = _panel_estimates(f, lo, hi) if estimates is None else estimates
    used = 0
    stalls = 0
    prev_err = math.inf
    while True:
        total = vals.sum()
        err = errs.sum()
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if err <= tol or not np.isfinite(err):
            if not np.isfinite(total):
                raise QuadratureError("integrand produced non-finite values")
            return float(total), lo, hi
        stalls = stalls + 1 if err > 0.9 * prev_err else 0
        prev_err = err
        if stalls >= 3:
            raise QuadratureError(
                f"error estimate stalled at {err:.3e} (tolerance {tol:.3e}); "
                "integrand precision is likely the limit"
            )
        # bisect every panel holding more than its share of the error budget
        bad = errs > tol / (2 * len(errs))
        if not bad.any():
            bad[np.argmax(errs)] = True
        n_bad = int(bad.sum())
        if used + n_bad > spec.max_subdivisions:
            raise QuadratureError(
                f"needed more than {spec.max_subdivisions} subdivisions "
                f"(error {err:.3e}, tolerance {tol:.3e})"
            )
        used += n_bad
        b_lo, b_hi = lo[bad], hi[bad]
        b_mid = 0.5 * (b_lo + b_hi)
        new_lo = np.concatenate([lo[~bad], b_lo, b_mid])
        new_hi = np.concatenate([hi[~bad], b_mid, b_hi])
        new_vals, new_errs = _panel_estimates(f, np.concatenate([b_lo, b_mid]),
                                              np.concatenate([b_mid, b_hi]))
        vals = np.concatenate([vals[~bad], new_vals])
        errs = np.concatenate([errs[~bad], new_errs])
        lo, hi = new_lo, new_hi


def integrate_panels(f, knots, spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Integrate a vectorized integrand over [knots[0], knots[-1]].

    ``knots`` pre-split the domain wherever the integrand is expected to
    change scale (kernel quantiles, edge refinements); ``refine_panels``
    bisects them to the tolerance.
    """
    knots = np.unique(np.asarray(knots, dtype=float))
    if knots.size < 2:
        return 0.0
    return refine_panels(f, knots[:-1], knots[1:], spec)[0]


QUANTILE_LADDER = np.array(
    [1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5,
     0.75, 0.9, 0.95, 0.99, 1 - 1e-3, 1 - 1e-4, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12]
)

_EDGE_FRACTIONS = 10.0 ** -np.arange(1, 13)


def domain_knots(lo, hi, quantiles=None) -> list[np.ndarray]:
    """Panel boundaries for each domain [lo_i, hi_i], adapted to products of densities.

    Combines kernel quantiles (mass can sit anywhere the kernel puts it),
    row i of ``quantiles`` for domain i, with geometric refinements toward
    both edges (the family density can concentrate the product near either
    end when the interval spans many orders of magnitude). Points outside a
    domain become repeats of hi, and each row is sorted and rid of repeats on
    its own; an empty domain (not hi > lo) gets no knots.
    """
    lo, hi = np.asarray(lo, dtype=float).reshape(-1, 1), np.asarray(hi, dtype=float).reshape(-1, 1)
    width = hi - lo
    pts = [lo + width * _EDGE_FRACTIONS, hi - width * _EDGE_FRACTIONS]
    if quantiles is not None:
        pts.append(np.asarray(quantiles, dtype=float).reshape(len(lo), -1))
    pts = np.concatenate(pts, axis=1)
    rows = np.concatenate([lo, hi, np.where((pts > lo) & (pts < hi), pts, hi)], axis=1)
    rows.sort()
    ok = hi > lo
    keep = np.concatenate([ok, (rows[:, 1:] != rows[:, :-1]) & ok], axis=1)
    ends = keep.sum(axis=1).cumsum().tolist()
    flat = rows[keep]
    return [flat[s:e] for s, e in zip([0, *ends], ends)]
