"""Batch command line front door.

Subcommands: ``fit`` (claims file or simulated scenario to a fit JSON),
``curve`` (tail-parameter curve CSV plus metadata sidecar), ``surface``
(efficiency solver grids), ``simulate`` (replicated studies), ``synth``
(synthetic claims CSV) and ``bridge-plot`` (tabulated bridging densities).

Outputs are plain CSV with JSON sidecars, written to a temp file and
renamed so failures never leave partial files. Identical arguments, inputs
and seeds produce byte-identical outputs. Failures exit nonzero with one
machine-readable JSON object on stderr. A ``key = value`` config file can
seed any long flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .closedform import ExpGammaSpec, NormalNormalSpec, surface_grid
from .estimator import fit
from .measure import lebesgue_density, make_gamma_bridge
from .models import ExponentialRate, NormalLocation
from .montecarlo import StudyConfig, replicate, simulate_scenario
from .tailstudy import (
    CSV_HEADER,
    TailConfig,
    TailScenarioSpec,
    build_bridge_sample,
    load_claims,
    run_tail_study,
    synthesize_claims,
)


def _parse_grid(text: str) -> list[float]:
    """Parse ``lo:hi:steps`` or ``lo:hi:steps:log`` into grid values."""
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(f"grid must be lo:hi:steps[:log], got {text!r}")
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid endpoints must be finite, got {text!r}")
    if steps < 1:
        raise ValueError("grid needs at least one step")
    if len(parts) == 4:
        if parts[3] != "log":
            raise ValueError(f"unknown grid spacing {parts[3]!r}")
        if lo <= 0 or hi <= 0:
            raise ValueError("log grids need positive endpoints")
        values = np.geomspace(lo, hi, steps)
    else:
        values = np.linspace(lo, hi, steps)
    return [float(v) for v in values]


def _sidecar_path(out: Path) -> Path:
    if out.suffix == ".csv":
        return out.with_suffix(".json")
    return out.with_name(out.name + ".json")


def _write_atomic(path: Path, writer) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", newline="") as handle:
            writer(handle)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path: Path, payload) -> None:
    def writer(handle):
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    _write_atomic(path, writer)


def _write_csv(path: Path, header, rows) -> None:
    def writer(handle):
        out = csv.writer(handle)
        out.writerow(header)
        out.writerows(rows)

    _write_atomic(path, writer)


def _fmt(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------------------
# scenario construction shared by fit and simulate


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", choices=["exp-gamma", "normal-normal", "tail"],
                        help="simulated scenario instead of a claims file")
    parser.add_argument("--xi0", type=float, default=0.5,
                        help="true parameter of the generating model")
    parser.add_argument("--sigma2", type=float, default=None,
                        help="expert variance scale (exp-gamma, tail, claims fit)")
    parser.add_argument("--sigma1", type=float, default=1.0,
                        help="known model standard deviation (normal-normal)")
    parser.add_argument("--expert-sd", type=float, default=0.0,
                        help="expert spread around the centers (normal-normal)")
    parser.add_argument("--noise-mean", type=float, default=0.0,
                        help="mean of the center noise (normal-normal)")
    parser.add_argument("--noise-sd", type=float, default=0.0,
                        help="sd of the center noise (normal-normal) or of the "
                             "ultimate noise (tail)")
    parser.add_argument("--rho", type=float, default=0.0,
                        help="noise correlation (normal-normal)")
    parser.add_argument("--tail-param", type=float, default=1.5,
                        help="generating tail parameter (tail scenario)")
    parser.add_argument("--censoring", type=float, default=1.5,
                        help="censoring intensity (tail scenario)")
    parser.add_argument("--k", type=int, default=69,
                        help="tail subsample size")


def _scenario_from_args(args):
    if args.scenario == "exp-gamma":
        return ExpGammaSpec(args.xi0, args.sigma2 if args.sigma2 is not None else 0.0)
    if args.scenario == "normal-normal":
        return NormalNormalSpec(
            true_location=args.xi0, model_sd=args.sigma1,
            noise_mean=args.noise_mean, noise_sd=args.noise_sd,
            expert_sd=args.expert_sd, noise_corr=args.rho,
        )
    if args.scenario == "tail":
        return TailScenarioSpec(
            k=args.k, sigma2=args.sigma2 if args.sigma2 is not None else 0.5,
            variant=args.variant, tail_param=args.tail_param,
            censoring=args.censoring, noise_sd=args.noise_sd,
        )
    raise ValueError("no scenario selected")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args) -> None:
    records = synthesize_claims(args.n, args.tail_param, args.x0_scale,
                                args.censoring, args.noise_sd, args.seed)
    rows = [
        (r.claim_id, _fmt(r.paid * args.scale), r.settled, _fmt(r.ultimate * args.scale))
        for r in records
    ]
    _write_csv(Path(args.out), CSV_HEADER, rows)


def _load_subsample(args):
    result = load_claims(args.input, scale=args.scale)
    if result.rejected:
        print(
            json.dumps({"rejected_rows": [
                {"line": line, "reason": reason} for line, reason in result.rejected
            ]}, sort_keys=True),
            file=sys.stderr,
        )
    return result.records


def _cmd_fit(args) -> None:
    if args.input is not None:
        records = _load_subsample(args)
        sigma2 = args.sigma2
        if sigma2 is None:
            raise ValueError("claims fitting requires --sigma2")
        family, measures = build_bridge_sample(records, args.k, sigma2, args.variant)
        method = args.method or "minimize"
        result = fit(family, measures, method=method)
        payload = {
            "mode": "claims",
            "family": family.spec_string(),
            "k": args.k,
            "x0": family.x0,
            "sigma2": sigma2,
            "variant": args.variant,
        }
    elif args.scenario is not None:
        scenario = _scenario_from_args(args)
        if isinstance(scenario, TailScenarioSpec):
            raise ValueError("use --input or the simulate subcommand for tail studies")
        measures = simulate_scenario(scenario, args.n, args.seed)
        if isinstance(scenario, ExpGammaSpec):
            family = ExponentialRate()
        else:
            family = NormalLocation(scenario.model_sd)
        method = args.method or "zroot"
        result = fit(family, measures, method=method)
        payload = {"mode": "scenario", "scenario": args.scenario,
                   "family": family.spec_string(), "n": args.n, "seed": args.seed}
    else:
        raise ValueError("fit needs either --input or --scenario")
    payload.update(
        estimate=result.estimate,
        stderr=result.stderr,
        m_hat=result.m_hat,
        j_hat=result.j_hat,
        v_hat=result.v_hat,
        n=result.n,
        method=result.method,
        iterations=result.iterations,
        converged=result.converged,
        objective=result.objective,
    )
    _write_json(Path(args.out), payload)


def _cmd_curve(args) -> None:
    records = _load_subsample(args)
    config = TailConfig(k=args.k, sigma2_grid=tuple(_parse_grid(args.grid)),
                        variant=args.variant)
    curve = run_tail_study(records, config)
    out = Path(args.out)
    rows = [
        (_fmt(s2), _fmt(est), _fmt(idx))
        for s2, est, idx in zip(curve.sigma2, curve.estimate, curve.tail_index)
    ]
    _write_csv(out, ("sigma2", "xi", "tail_index"), rows)
    _write_json(_sidecar_path(out), {
        "k": curve.k,
        "x0": curve.x0,
        "variant": curve.variant,
        "grid": [float(s) for s in curve.sigma2],
        "imputation": curve.imputation,
        "survival": curve.survival,
        "imputation_tail_index": 1.0 / curve.imputation,
        "survival_tail_index": 1.0 / curve.survival,
        "failures": [{"index": i, "reason": msg} for i, msg in curve.failures],
    })


def _cmd_surface(args) -> None:
    if args.kind == "sigma":
        if args.e_grid is None or args.n_grid is None:
            raise ValueError("kind sigma needs --e-grid and --n-grid")
        surf = surface_grid("sigma_of_e_n", _parse_grid(args.e_grid),
                            _parse_grid(args.n_grid), args.xi0)
        header = ("e", "n", "sigma")
    else:
        if args.n0_grid is None or args.sigma_grid is None:
            raise ValueError("kind n needs --n0-grid and --sigma-grid")
        surf = surface_grid("n_of_n0_sigma", _parse_grid(args.n0_grid),
                            _parse_grid(args.sigma_grid), args.xi0)
        header = ("n0", "sigma", "n")
    rows = []
    for i, r in enumerate(surf.row_axis):
        for j, c in enumerate(surf.col_axis):
            value = surf.values[i, j]
            rows.append((_fmt(r), _fmt(c), _fmt(value) if math.isfinite(value) else "nan"))
    out = Path(args.out)
    _write_csv(out, header, rows)
    _write_json(_sidecar_path(out), {
        "kind": surf.kind,
        "xi0": args.xi0,
        "row_axis": [float(v) for v in surf.row_axis],
        "col_axis": [float(v) for v in surf.col_axis],
        "failures": [{"row": i, "col": j, "reason": msg} for i, j, msg in surf.failures],
    })


def _cmd_simulate(args) -> None:
    scenario = _scenario_from_args(args)
    config = StudyConfig(scenario=scenario, n=args.n, replications=args.reps,
                         seed=args.seed, ci_level=args.ci_level)
    summary = replicate(config)
    payload = {
        "scenario": args.scenario,
        "n": summary.n,
        "replications": summary.replications,
        "failures": summary.n_failures,
        "mean_estimate": summary.mean_estimate,
        "var_estimate": summary.var_estimate,
        "mse_vs_true": summary.mse_vs_true,
        "mse_vs_limit": summary.mse_vs_limit,
        "coverage": summary.coverage,
        "score_mean": summary.score_mean,
        "score_se": summary.score_se,
        "limit": summary.limit,
        "true_value": summary.true_value,
        "seed": args.seed,
        "ci_level": args.ci_level,
    }
    _write_json(Path(args.out), payload)
    if args.table is not None:
        rows = []
        for i in range(summary.estimates.size):
            rows.append((
                i,
                _fmt(summary.estimates[i]),
                _fmt(summary.variances[i]),
                _fmt(summary.ci_lower[i]),
                _fmt(summary.ci_upper[i]),
                int(summary.covered[i]) if summary.covered is not None else "",
            ))
        _write_csv(Path(args.table),
                   ("replication", "estimate", "v_hat", "ci_lower", "ci_upper", "covered"),
                   rows)


def _cmd_bridge_plot(args) -> None:
    sigma2_values = [float(s) for s in args.sigma2_list.split(",") if s.strip()]
    if not sigma2_values:
        raise ValueError("need at least one sigma2 value")
    xs = _parse_grid(args.x_grid)
    rows = []
    for s2 in sigma2_values:
        measure = make_gamma_bridge(args.w, args.z, s2, args.variant)
        for x in xs:
            rows.append((_fmt(s2), _fmt(x), _fmt(lebesgue_density(measure, x))))
    out = Path(args.out)
    _write_csv(out, ("sigma2", "x", "density"), rows)
    _write_json(_sidecar_path(out), {
        "paid": args.w,
        "ultimate": args.z,
        "variant": args.variant,
        "sigma2_values": sigma2_values,
    })


# ---------------------------------------------------------------------------
# parser assembly


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="measurefit",
        description="estimation from measure-valued data: fits, curves, "
                    "surfaces, simulations, synthetic claims",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a claims file or a simulated scenario")
    p_fit.add_argument("--input", help="claims CSV (id,paid,settled,ultimate)")
    p_fit.add_argument("--scale", type=float, default=1e6,
                       help="divisor applied to monetary columns")
    p_fit.add_argument("--variant", choices=["A", "B"], default="A")
    p_fit.add_argument("--method", choices=["minimize", "zroot"], default=None)
    p_fit.add_argument("--n", type=int, default=1000, help="scenario sample size")
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--out", required=True, help="fit result JSON path")
    _add_scenario_flags(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_curve = sub.add_parser("curve", help="tail parameter across an expert-variance grid")
    p_curve.add_argument("--input", required=True)
    p_curve.add_argument("--scale", type=float, default=1e6)
    p_curve.add_argument("--k", type=int, default=69)
    p_curve.add_argument("--grid", required=True, help="sigma2 grid lo:hi:steps[:log]")
    p_curve.add_argument("--variant", choices=["A", "B"], default="A")
    p_curve.add_argument("--out", required=True, help="curve CSV path")
    p_curve.set_defaults(func=_cmd_curve)

    p_surface = sub.add_parser("surface", help="efficiency solver grids")
    p_surface.add_argument("--kind", choices=["sigma", "n"], required=True)
    p_surface.add_argument("--xi0", type=float, default=0.5)
    p_surface.add_argument("--e-grid", help="efficiency grid (kind sigma)")
    p_surface.add_argument("--n-grid", help="sample size grid (kind sigma)")
    p_surface.add_argument("--n0-grid", help="oracle size grid (kind n)")
    p_surface.add_argument("--sigma-grid", help="expert spread grid (kind n)")
    p_surface.add_argument("--out", required=True)
    p_surface.set_defaults(func=_cmd_surface)

    p_sim = sub.add_parser("simulate", help="replicated seeded study")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--ci-level", type=float, default=0.95)
    p_sim.add_argument("--variant", choices=["A", "B"], default="A")
    p_sim.add_argument("--out", required=True, help="summary JSON path")
    p_sim.add_argument("--table", default=None, help="optional per-replication CSV")
    _add_scenario_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_synth = sub.add_parser("synth", help="synthetic claims CSV")
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--tail-param", type=float, default=1.5)
    p_synth.add_argument("--x0-scale", type=float, default=1.0)
    p_synth.add_argument("--censoring", type=float, default=1.5)
    p_synth.add_argument("--noise-sd", type=float, default=0.1)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--scale", type=float, default=1e6,
                         help="multiplier applied to monetary columns on write")
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=_cmd_synth)

    p_bridge = sub.add_parser("bridge-plot", help="tabulate bridging densities")
    p_bridge.add_argument("--w", type=float, required=True, help="paid amount")
    p_bridge.add_argument("--z", type=float, required=True, help="ultimate")
    p_bridge.add_argument("--sigma2-list", required=True,
                          help="comma separated expert variances")
    p_bridge.add_argument("--x-grid", required=True, help="evaluation grid lo:hi:steps")
    p_bridge.add_argument("--variant", choices=["A", "B"], default="A")
    p_bridge.add_argument("--out", required=True)
    p_bridge.set_defaults(func=_cmd_bridge_plot)

    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Splice ``key = value`` config entries in front of explicit flags."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise ValueError("--config needs a file path")
    path = Path(argv[i + 1])
    rest = argv[:i] + argv[i + 2:]
    if not rest:
        raise ValueError("--config requires a subcommand")
    entries: list[str] = []
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line is not key = value: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        entries.append(f"--{key.replace('_', '-')}")
        if value:
            entries.append(value)
    return [rest[0], *entries, *rest[1:]]


def run(argv: list[str]) -> int:
    """Dispatch one invocation; returns the process exit status."""
    try:
        argv = _apply_config_file(list(argv))
        parser = _build_parser()
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        if code != 0:
            print(json.dumps({"error": "UsageError", "message": "invalid arguments"},
                             sort_keys=True), file=sys.stderr)
        return code
    except Exception as exc:  # noqa: BLE001 - single reporting funnel
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
