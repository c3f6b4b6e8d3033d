"""Output-identity check: print the outputs of a fixed set of fits, one value a line.

Each line is ``group key value``. A float is printed with ``float.hex``, so
two trees give equal lines only for bit-identical values; an output file of
the command line is printed as its SHA-256. The groups are:

- ``claims``: claims fits with sandwich, synth seeds 7-9 (n=837), k=69,
  variants A and B, 17 sigma2 points from 1e-8 to 1e8, both methods, and a
  claims bootstrap;
- ``ramp``: normal-ramp fits with sandwich and bootstrap under
  ``normal(sigma1=1)``, and gamma-ramp fits with bootstrap under ``exp``;
- ``curve``: tail curves, seeds 7-9, both variants, 9 points;
- ``replicate``: ``replicate`` studies of the exp-gamma, normal-normal and
  tail scenarios;
- ``cli``: ``synth``, ``curve``, claims and scenario ``fit`` and
  ``simulate`` outputs, with their sidecars.

Print the values of the package under ``--src`` (default: this tree's)::

    python scripts/identity.py --src src > after.txt

Compare two printouts, per group: how many values moved, and the largest
relative move of a float::

    python scripts/identity.py --compare before.txt after.txt
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (7, 8, 9)
CLAIMS = dict(n=837, tail_param=1.5, x0_scale=1.0, censoring=1.4938, noise_sd=0.1)
FIT_GRID = 10.0 ** np.arange(-8, 9)  # 17 points from 1e-8 to 1e8
CURVE_GRID = tuple(10.0 ** np.arange(-8, 9, 2))  # 9 points


def _hex(value) -> str:
    return "none" if value is None else float(value).hex()


class Printer:
    def __init__(self, out) -> None:
        self.out = out

    def __call__(self, group: str, key: str, *values) -> None:
        for i, value in enumerate(values):
            suffix = f"[{i}]" if len(values) > 1 else ""
            self.out.write(f"{group} {key}{suffix} {_hex(value)}\n")

    def fit(self, group: str, key: str, result) -> None:
        for name in ("estimate", "objective", "m_hat", "j_hat", "v_hat", "stderr", "iterations"):
            self(group, f"{key}.{name}", getattr(result, name))

    def bootstrap(self, group: str, key: str, boot) -> None:
        self(group, f"{key}.boot_se", boot.standard_error)
        self(group, f"{key}.boot_estimates", *boot.estimates)


def claims(mf, emit: Printer) -> None:
    for seed in SEEDS:
        records = mf.synthesize_claims(**CLAIMS, seed=seed)
        for variant in "AB":
            for s2 in FIT_GRID:
                family, measures = mf.tailstudy.build_bridge_sample(records, 69, float(s2), variant)
                for method in ("minimize", "zroot"):
                    key = f"seed{seed}.{variant}.{s2:g}.{method}"
                    try:
                        emit.fit("claims", key, mf.fit(family, measures, method=method))
                    except (mf.FitError, ValueError, RuntimeError) as exc:
                        emit.out.write(f"claims {key} error:{type(exc).__name__}\n")
        if seed == SEEDS[0]:
            family, measures = mf.tailstudy.build_bridge_sample(records, 69, 0.5, "A")
            emit.bootstrap("claims", f"seed{seed}.A.0.5", mf.bootstrap_se(family, measures, 6, seed))


def ramps(mf, emit: Printer) -> None:
    normal = mf.parse_family("normal(sigma1=1)")
    for seed in SEEDS:
        rng = np.random.default_rng([seed, 50])
        x = 1.0 + rng.standard_normal(50)
        cut = 1.5 + rng.standard_normal(50)
        measures = [mf.make_measurement_uncertainty(mf.NormalKernel(float(u), 0.5), int(s))
                    for u, s in zip(np.minimum(x, cut), x <= cut)]
        emit.fit("ramp", f"normal.seed{seed}", mf.fit(normal, measures))
        emit.bootstrap("ramp", f"normal.seed{seed}", mf.bootstrap_se(normal, measures, 5, seed))
        # open values as gamma-kernel ramps under exp: these take quadrature panels
        y = rng.exponential(2.0, 40)
        c = rng.exponential(3.0, 40)
        measures = [mf.make_measurement_uncertainty(mf.GammaKernel(4.0, 4.0 / float(u)), int(s))
                    for u, s in zip(np.minimum(y, c), y <= c)]
        emit.fit("ramp", f"gamma.seed{seed}", mf.fit(mf.ExponentialRate(), measures))
        emit.bootstrap("ramp", f"gamma.seed{seed}",
                       mf.bootstrap_se(mf.ExponentialRate(), measures, 4, seed))


def curves(mf, emit: Printer) -> None:
    for seed in SEEDS:
        records = mf.synthesize_claims(**CLAIMS, seed=seed)
        for variant in "AB":
            curve = mf.run_tail_study(records, mf.TailConfig(k=69, sigma2_grid=CURVE_GRID,
                                                             variant=variant))
            emit("curve", f"seed{seed}.{variant}.estimate", *curve.estimate)
            emit("curve", f"seed{seed}.{variant}.baselines", curve.imputation, curve.survival)


def studies(mf, emit: Printer) -> None:
    scenarios = {
        "exp-gamma-0.5": (mf.ExpGammaSpec(0.5, 0.5), 1500, 6),
        "exp-gamma-0": (mf.ExpGammaSpec(0.5, 0.0), 1500, 6),
        "normal-expert": (mf.NormalNormalSpec(2.0, 1.0, noise_mean=0.1, noise_sd=0.3,
                                              expert_sd=0.7), 1500, 6),
        "normal": (mf.NormalNormalSpec(2.0, 1.0), 1500, 6),
        "tail": (mf.TailScenarioSpec(k=69, sigma2=0.5), 837, 4),
    }
    for name, (scenario, n, reps) in scenarios.items():
        summary = mf.replicate(mf.StudyConfig(scenario=scenario, n=n, replications=reps, seed=11))
        emit("replicate", f"{name}.moments", summary.mean_estimate, summary.var_estimate,
             summary.score_mean, summary.score_se)
        emit("replicate", f"{name}.estimates", *summary.estimates)
        emit("replicate", f"{name}.variances", *summary.variances)


def cli(mf, emit: Printer) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        claims_csv = str(d / "claims.csv")
        commands = [
            ["synth", "--n", "837", "--tail-param", "1.5", "--censoring", "1.4938",
             "--noise-sd", "0.1", "--seed", "7", "--out", claims_csv],
            *[["curve", "--input", claims_csv, "--k", "69", "--grid", "1e-8:1e8:9:log",
               "--variant", v, "--out", str(d / f"curve_{v}.csv")] for v in "AB"],
            ["fit", "--input", claims_csv, "--sigma2", "0.5", "--out", str(d / "fit_claims.json")],
            ["fit", "--scenario", "exp-gamma", "--sigma2", "0.5", "--n", "2000", "--seed", "3",
             "--out", str(d / "fit_scenario.json")],
            ["simulate", "--scenario", "exp-gamma", "--sigma2", "0.5", "--n", "1000",
             "--reps", "4", "--seed", "5", "--out", str(d / "simulate.json"),
             "--table", str(d / "simulate.csv")],
        ]
        for argv in commands:
            if mf.cli.run(argv) != 0:
                emit.out.write(f"cli {argv[0]} error:exit\n")
        for path in sorted(d.iterdir()):
            emit.out.write(f"cli {path.name} sha256:{hashlib.sha256(path.read_bytes()).hexdigest()}\n")


def print_values(src: Path) -> None:
    sys.path.insert(0, str(src))
    import measurefit as mf
    import measurefit.cli  # noqa: F401 - binds mf.cli

    if not Path(mf.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"measurefit was imported from {mf.__file__}, not from {src}")
    emit = Printer(sys.stdout)
    for section in (claims, ramps, curves, studies, cli):
        section(mf, emit)


def _read(path: str) -> dict[str, dict[str, str]]:
    groups: dict[str, dict[str, str]] = defaultdict(dict)
    for line in Path(path).read_text().splitlines():
        group, key, value = line.split(" ")
        groups[group][key] = value
    return groups


def _relative_move(a: str, b: str) -> float | None:
    """|a - b| / max(|a|, |b|) of two printed floats; None where either is not one."""
    try:
        x, y = float.fromhex(a), float.fromhex(b)
    except ValueError:
        return None
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def compare(before: str, after: str) -> None:
    old, new = _read(before), _read(after)
    print(f"{'group':<10} {'values':>7} {'moved':>6} {'missing':>8} largest relative move")
    for group in sorted(old.keys() | new.keys()):
        a, b = old.get(group, {}), new.get(group, {})
        keys = a.keys() & b.keys()
        moved = [k for k in keys if a[k] != b[k]]
        moves = [m for m in (_relative_move(a[k], b[k]) for k in moved) if m is not None]
        largest = f"{max(moves):.3g}" if moves else ("-" if not moved else "n/a (hashes)")
        print(f"{group:<10} {len(keys):>7} {len(moved):>6} "
              f"{len(a.keys() ^ b.keys()):>8} {largest}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the measurefit package to run")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two printouts instead of printing values")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    else:
        print_values(args.src.resolve())


if __name__ == "__main__":
    main()
