"""Heavy-tail estimation from censored claims with expert ultimates.

Pipeline: ingest (or synthesize) claim records carrying paid amount,
settlement flag and expert ultimate; keep the largest paid amounts with the
next one as threshold; represent settled claims as atoms and open claims as
paid-to-ultimate bridging measures; trace the fitted tail parameter across
the expert-variance grid against two baselines (imputing the ultimates as
exact, and ignoring them via the censored survival likelihood).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .estimator import FitError, fit
from .measure import RandomMeasure, make_dirac, make_gamma_bridge
from .models import ParetoTail
from .quadrature import DEFAULT_QUAD, QuadratureSpec, check_count


@dataclass(frozen=True)
class ClaimRecord:
    """One claim: paid amount, settlement flag, expert ultimate.

    Settled claims have ultimate equal to paid; open claims carry an
    ultimate at least as large as the amount already paid.
    """

    claim_id: str
    paid: float
    settled: int
    ultimate: float

    def __post_init__(self) -> None:
        if not (self.paid > 0 and math.isfinite(self.paid)):
            raise ValueError(f"claim {self.claim_id}: paid amount must be positive")
        if self.settled not in (0, 1):
            raise ValueError(f"claim {self.claim_id}: settled flag must be 0 or 1")
        if not math.isfinite(self.ultimate):
            raise ValueError(f"claim {self.claim_id}: ultimate must be finite")
        if self.settled == 1 and self.ultimate != self.paid:
            raise ValueError(
                f"claim {self.claim_id}: settled claims must have ultimate == paid"
            )
        if self.settled == 0 and self.ultimate < self.paid:
            raise ValueError(
                f"claim {self.claim_id}: open claims need ultimate >= paid"
            )


CSV_HEADER = ("id", "paid", "settled", "ultimate")


@dataclass(frozen=True)
class LoadResult:
    records: list[ClaimRecord]
    rejected: list[tuple[int, str]]  # (line number, reason)


def load_claims(path, scale: float = 1.0) -> LoadResult:
    """Read and validate a claims CSV (header ``id,paid,settled,ultimate``).

    Monetary columns are divided by ``scale``. Rows violating the record
    invariants are rejected with line-level diagnostics rather than
    aborting the load; an empty or malformed file, or a ``scale`` that is not
    positive and finite, raises.
    """
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    records: list[ClaimRecord] = []
    rejected: list[tuple[int, str]] = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty claims file") from None
        if tuple(h.strip().lower() for h in header) != CSV_HEADER:
            raise ValueError(
                f"{path}: expected header {','.join(CSV_HEADER)!r}, got {header!r}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                if len(row) != 4:
                    raise ValueError(f"expected 4 columns, got {len(row)}")
                record = ClaimRecord(
                    claim_id=row[0].strip(),
                    paid=float(row[1]) / scale,
                    settled=int(row[2]),
                    ultimate=float(row[3]) / scale,
                )
            except ValueError as exc:
                rejected.append((line_no, str(exc)))
                continue
            records.append(record)
    if not records and not rejected:
        raise ValueError(f"{path}: no data rows")
    return LoadResult(records=records, rejected=rejected)


@dataclass(frozen=True)
class TopSelection:
    """The largest-paid subsample with its threshold.

    The threshold is the next paid amount after the subsample; flag values
    and ultimates travel with their records. ``tied_at_threshold`` counts
    subsample members whose paid amount equals the threshold (resolved by
    stable input order).
    """

    x0: float
    records: tuple[ClaimRecord, ...]
    tied_at_threshold: int


def select_top_k(records, k: int) -> TopSelection:
    """Keep the k records with the largest paid amounts.

    The threshold is the (k+1)-th largest paid amount; ties are broken by
    stable input order.
    """
    records = list(records)
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(records) < k + 1:
        raise ValueError(f"need at least {k + 1} records, got {len(records)}")
    ordered = sorted(records, key=lambda r: -r.paid)  # stable for ties
    top = tuple(ordered[:k])
    x0 = ordered[k].paid
    tied = sum(1 for r in top if r.paid == x0)
    return TopSelection(x0=x0, records=top, tied_at_threshold=tied)


def imputation_index(subsample, x0: float) -> float:
    """Tail parameter treating the ultimates as exact observations."""
    records = list(subsample)
    if not records:
        raise ValueError("empty subsample")
    ultimates = np.array([r.ultimate for r in records])
    below = int((ultimates < x0).sum())
    if below:
        raise ValueError(f"{below} ultimates fall below the threshold {x0:g}")
    denom = float(np.log(ultimates / x0).sum())
    if denom <= 0:
        raise ValueError("all ultimates sit at the threshold; estimator diverges")
    return len(records) / denom


def survival_index(subsample, x0: float) -> float:
    """Tail parameter from the censored survival likelihood (ultimates ignored).

    Closed-form maximizer: settled count over the summed log exceedances of
    the paid amounts.
    """
    records = list(subsample)
    if not records:
        raise ValueError("empty subsample")
    paid = np.array([r.paid for r in records])
    if (paid < x0).any():
        raise ValueError("paid amounts must not fall below the threshold")
    settled = sum(r.settled for r in records)
    if settled == 0:
        raise ValueError("no settled claims; censored likelihood has no maximizer")
    denom = float(np.log(paid / x0).sum())
    if denom <= 0:
        raise ValueError("all paid amounts sit at the threshold; estimator diverges")
    return settled / denom


def claim_measure(record: ClaimRecord, sigma2: float, variant: str) -> RandomMeasure:
    """Measure for one claim: an atom when settled, a bridge when open."""
    if record.settled:
        return make_dirac(record.paid)
    return make_gamma_bridge(record.paid, record.ultimate, sigma2, variant)


def build_bridge_sample(records, k: int, sigma2: float, variant: str = "A"):
    """Select the tail subsample and build its measures at one expert variance."""
    selection = select_top_k(records, k)
    family = ParetoTail(selection.x0)
    measures = [claim_measure(r, sigma2, variant) for r in selection.records]
    return family, measures


@dataclass(frozen=True)
class TailConfig:
    """Grid and quadrature settings for the tail curve."""

    k: int = 69
    sigma2_grid: tuple[float, ...] = ()
    variant: str = "A"
    quad: QuadratureSpec = DEFAULT_QUAD

    def __post_init__(self) -> None:
        check_count("k", self.k, 2)
        grid = tuple(float(s) for s in self.sigma2_grid)
        if not all(0 < s < math.inf for s in grid):
            raise ValueError("sigma2 grid values must be positive and finite")
        if any(b >= a for a, b in zip(grid[1:], grid[:-1])):
            raise ValueError("sigma2 grid must be strictly increasing")
        if self.variant not in ("A", "B"):
            raise ValueError("variant must be 'A' or 'B'")
        object.__setattr__(self, "sigma2_grid", grid)


@dataclass(frozen=True)
class CurveResult:
    """Fitted tail parameter across the expert-variance grid, with baselines."""

    sigma2: np.ndarray
    estimate: np.ndarray       # fitted Pareto parameter per grid point (NaN on failure)
    tail_index: np.ndarray     # reciprocal of the estimate
    imputation: float
    survival: float
    x0: float
    k: int
    variant: str
    failures: list[tuple[int, str]] = field(default_factory=list)


def tail_curve(subsample, x0: float, config: TailConfig) -> CurveResult:
    """Fit the tail parameter at every grid value of the expert variance.

    Endpoints bridge to the two baselines: a vanishing expert variance
    recovers the imputation estimate, a huge one the survival estimate.
    Interior values need not stay between the two. Per-point fit failures
    leave gaps instead of aborting the curve. Each fit starts, as any fit
    without a pilot, at the midpoint of the search bracket.
    """
    records = list(subsample)
    family = ParetoTail(x0)
    estimates = np.full(len(config.sigma2_grid), np.nan)
    failures: list[tuple[int, str]] = []
    for i, s2 in enumerate(config.sigma2_grid):
        measures = [claim_measure(r, s2, config.variant) for r in records]
        try:
            res = fit(family, measures, quad=config.quad, method="minimize",
                      compute_sandwich=False)
            estimates[i] = res.estimate
        except (FitError, ValueError, RuntimeError) as exc:
            failures.append((i, str(exc)))
    with np.errstate(divide="ignore"):
        reciprocal = np.where(estimates > 0, 1.0 / estimates, np.nan)
    return CurveResult(
        sigma2=np.asarray(config.sigma2_grid),
        estimate=estimates,
        tail_index=reciprocal,
        imputation=imputation_index(records, x0),
        survival=survival_index(records, x0),
        x0=x0,
        k=len(records),
        variant=config.variant,
        failures=failures,
    )


def run_tail_study(records, config: TailConfig) -> CurveResult:
    """Select the tail subsample and trace the full curve."""
    selection = select_top_k(records, config.k)
    return tail_curve(selection.records, selection.x0, config)


def synthesize_claims(n: int, tail_param: float, x0_scale: float,
                      censoring: float, noise_sd: float, seed: int,
                      id_prefix: str = "syn") -> list[ClaimRecord]:
    """Generate heavy-tailed claims with independent censoring and noisy ultimates.

    Claim sizes follow a power tail above ``x0_scale``; an independent
    censoring time with intensity ``censoring`` determines the paid amount
    (the minimum of the two) and the settlement flag, giving a settled
    share of 1/(1 + censoring). Open-claim ultimates are the true size
    distorted by multiplicative noise, floored at the paid amount; settled
    claims carry their paid amount as ultimate. Deterministic in the seed.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if tail_param <= 0 or x0_scale <= 0:
        raise ValueError("tail_param and x0_scale must be positive")
    if censoring < 0 or noise_sd < 0:
        raise ValueError("censoring and noise_sd must be nonnegative")
    rng = np.random.default_rng(seed)
    sizes = x0_scale * (1.0 - rng.random(n)) ** (-1.0 / tail_param)
    if censoring > 0:
        cens_index = tail_param * censoring
        cens = x0_scale * (1.0 - rng.random(n)) ** (-1.0 / cens_index)
    else:
        cens = np.full(n, math.inf)
    noise = rng.standard_normal(n)
    width = max(1, len(str(n)))
    records = []
    for i in range(n):
        settled = int(sizes[i] <= cens[i])
        paid = float(min(sizes[i], cens[i]))
        if settled:
            ultimate = paid
        else:
            ultimate = float(max(sizes[i] * (1.0 + noise_sd * noise[i]), paid))
        records.append(ClaimRecord(f"{id_prefix}{i + 1:0{width}d}", paid, settled, ultimate))
    return records


@dataclass(frozen=True)
class TailScenarioSpec:
    """Synthetic claims scenario for simulation studies.

    Each replication synthesizes that many claims, keeps the top ``k`` and
    fits the tail parameter at one expert variance.
    """

    k: int = 69
    sigma2: float = 0.5
    variant: str = "A"
    tail_param: float = 1.5
    x0_scale: float = 1.0
    censoring: float = 1.5
    noise_sd: float = 0.1
