import json
import math
import warnings

import numpy as np
import pytest

from measurefit import lebesgue_density, load_claims, make_gamma_bridge
from measurefit.cli import run


def invoke(args):
    return run([str(a) for a in args])


def synth_args(out, n=120, seed=7, censoring=1.5):
    return ["synth", "--n", n, "--tail-param", 1.5, "--censoring", censoring,
            "--noise-sd", 0.1, "--seed", seed, "--scale", 1e6, "--out", out]


def test_synth_writes_loadable_claims(tmp_path):
    out = tmp_path / "claims.csv"
    assert invoke(synth_args(out)) == 0
    result = load_claims(out, scale=1e6)
    assert len(result.records) == 120
    assert result.rejected == []


def test_synth_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    invoke(synth_args(a))
    invoke(synth_args(b))
    assert a.read_bytes() == b.read_bytes()


def test_curve_endpoints_match_sidecar_baselines(tmp_path):
    claims = tmp_path / "claims.csv"
    invoke(synth_args(claims, n=200))
    out = tmp_path / "curve.csv"
    assert invoke(["curve", "--input", claims, "--k", 30,
                   "--grid", "1e-8:1e8:5:log", "--variant", "A", "--out", out]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "sigma2,xi,tail_index"
    first = float(rows[1].split(",")[1])
    last = float(rows[-1].split(",")[1])
    meta = json.loads((tmp_path / "curve.json").read_text())
    assert abs(first - meta["imputation"]) / meta["imputation"] < 1e-3
    assert abs(last - meta["survival"]) / meta["survival"] < 1e-3


def test_fit_all_settled_matches_hill_form(tmp_path):
    claims = tmp_path / "claims.csv"
    invoke(synth_args(claims, n=150, censoring=0.0))  # everything settled
    out = tmp_path / "fit.json"
    assert invoke(["fit", "--input", claims, "--k", 40, "--sigma2", 0.5,
                   "--out", out]) == 0
    payload = json.loads(out.read_text())
    records = load_claims(claims, scale=1e6).records
    paid = sorted((r.paid for r in records), reverse=True)
    x0 = paid[40]
    hill = 40 / sum(math.log(w / x0) for w in paid[:40])
    assert payload["estimate"] == pytest.approx(hill, abs=2e-6)
    assert payload["x0"] == pytest.approx(x0)


def test_fit_scenario_mode(tmp_path):
    out = tmp_path / "fit.json"
    assert invoke(["fit", "--scenario", "exp-gamma", "--xi0", 0.5, "--sigma2", 0.5,
                   "--n", 400, "--seed", 3, "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert payload["mode"] == "scenario"
    assert abs(payload["estimate"] - 2.0 / 3.0) < 0.2
    assert payload["v_hat"] > 0


def test_fit_tail_scenario_rejected_before_drawing(tmp_path, capsys, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("the tail scenario was drawn before it was rejected")

    monkeypatch.setattr("measurefit.cli.simulate_scenario", no_draw)
    out = tmp_path / "fit.json"
    assert invoke(["fit", "--scenario", "tail", "--n", 400, "--seed", 3,
                   "--out", out]) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ValueError"
    assert "tail studies" in payload["message"]
    assert not out.exists()


@pytest.mark.parametrize("grid", ["0.5:nan:2", "1e-8:inf:3:log"])
def test_curve_rejects_a_non_finite_grid_before_fitting(tmp_path, capsys, monkeypatch, grid):
    claims = tmp_path / "claims.csv"
    invoke(synth_args(claims, n=200))

    def no_fit(*args, **kwargs):
        raise AssertionError("a grid point was fitted before the grid was rejected")

    monkeypatch.setattr("measurefit.tailstudy.fit", no_fit)
    out = tmp_path / "curve.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = invoke(["curve", "--input", claims, "--k", 30, "--grid", grid, "--out", out])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ValueError"
    assert "finite" in payload["message"]
    assert not out.exists()


def test_surface_sigma_kind_monotone(tmp_path):
    out = tmp_path / "surf.csv"
    assert invoke(["surface", "--kind", "sigma", "--xi0", 0.5,
                   "--e-grid", "1.5:20:4", "--n-grid", "10:1000:4:log",
                   "--out", out]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    by_e = {}
    for e, n, sigma in rows:
        by_e.setdefault(e, []).append(float(sigma))
    for sigmas in by_e.values():
        assert all(b <= a + 1e-12 for a, b in zip(sigmas, sigmas[1:]))


def test_surface_n_kind_identity_column(tmp_path):
    out = tmp_path / "surf.csv"
    assert invoke(["surface", "--kind", "n", "--xi0", 0.5,
                   "--n0-grid", "5:40:3", "--sigma-grid", "0:0.3:3",
                   "--out", out]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    for n0, sigma, n in rows:
        if float(sigma) == 0.0:
            assert float(n) == pytest.approx(float(n0))


def test_simulate_outputs_summary_and_table(tmp_path):
    out, table = tmp_path / "sim.json", tmp_path / "sim.csv"
    assert invoke(["simulate", "--scenario", "exp-gamma", "--xi0", 0.5,
                   "--sigma2", 0.5, "--n", 300, "--reps", 8, "--seed", 2,
                   "--out", out, "--table", table]) == 0
    payload = json.loads(out.read_text())
    assert payload["replications"] == 8
    assert payload["limit"] == pytest.approx(2.0 / 3.0)
    assert len(table.read_text().strip().splitlines()) == 9  # header + reps


def test_bridge_plot_matches_library_density(tmp_path):
    out = tmp_path / "bridge.csv"
    assert invoke(["bridge-plot", "--w", 1.0, "--z", 3.0, "--sigma2-list", "0.25,4",
                   "--x-grid", "1:5:5", "--variant", "A", "--out", out]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    for s2, x, density in rows:
        measure = make_gamma_bridge(1.0, 3.0, float(s2), "A")
        assert float(density) == pytest.approx(lebesgue_density(measure, float(x)))


def test_config_file_provides_defaults_and_flags_override(tmp_path):
    claims = tmp_path / "claims.csv"
    invoke(synth_args(claims, n=200))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 40\ngrid = 0.5:2:2\nvariant = B\n")
    out = tmp_path / "curve.csv"
    assert invoke(["curve", "--config", cfg, "--input", claims, "--out", out]) == 0
    meta = json.loads((tmp_path / "curve.json").read_text())
    assert meta["k"] == 40 and meta["variant"] == "B"

    out2 = tmp_path / "curve2.csv"
    assert invoke(["curve", "--config", cfg, "--input", claims, "--k", 25,
                   "--out", out2]) == 0
    meta2 = json.loads((tmp_path / "curve2.json").read_text())
    assert meta2["k"] == 25 and meta2["variant"] == "B"


def test_failure_emits_error_json_and_no_output(tmp_path, capsys):
    out = tmp_path / "fit.json"
    code = invoke(["fit", "--input", tmp_path / "missing.csv", "--sigma2", 0.5,
                   "--out", out])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    payload = json.loads(err)
    assert payload["error"] == "FileNotFoundError"
    assert not out.exists()


def test_unknown_subcommand_fails_with_json(capsys):
    assert invoke(["frobnicate"]) == 2
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert json.loads(err)["error"] == "UsageError"


def test_rejected_rows_reported_on_stderr(tmp_path, capsys):
    claims = tmp_path / "claims.csv"
    claims.write_text(
        "id,paid,settled,ultimate\n"
        "ok,2.0,0,3.0\nok2,3.0,1,3.0\nok3,4.0,1,4.0\nbad,2.0,0,1.0\n"
    )
    out = tmp_path / "fit.json"
    assert invoke(["fit", "--input", claims, "--k", 2, "--sigma2", 0.5,
                   "--scale", 1, "--out", out]) == 0
    err = capsys.readouterr().err
    assert "rejected_rows" in err
