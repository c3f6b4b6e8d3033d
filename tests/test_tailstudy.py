import math

import numpy as np
import pytest

from measurefit import (
    ClaimRecord,
    TailConfig,
    imputation_index,
    load_claims,
    run_tail_study,
    select_top_k,
    survival_index,
    synthesize_claims,
    tail_curve,
)
from measurefit.tailstudy import build_bridge_sample


def make_record(i, paid, settled, ultimate=None):
    if ultimate is None:
        ultimate = paid
    return ClaimRecord(f"r{i}", paid, settled, ultimate)


# ---------------------------------------------------------------------------
# records and loading


def test_record_invariants():
    with pytest.raises(ValueError):
        ClaimRecord("a", -1.0, 1, 1.0)
    with pytest.raises(ValueError):
        ClaimRecord("a", 1.0, 2, 1.0)
    with pytest.raises(ValueError):
        ClaimRecord("a", 1.0, 1, 2.0)  # settled must have ultimate == paid
    with pytest.raises(ValueError):
        ClaimRecord("a", 2.0, 0, 1.0)  # open needs ultimate >= paid


def write_claims(path, rows):
    lines = ["id,paid,settled,ultimate"] + [",".join(str(v) for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def test_load_claims_round_trip(tmp_path):
    path = tmp_path / "claims.csv"
    write_claims(path, [("a", 1.5, 1, 1.5), ("b", 2.0, 0, 3.5)])
    result = load_claims(path)
    assert [r.claim_id for r in result.records] == ["a", "b"]
    assert result.records[1].ultimate == 3.5
    assert result.rejected == []


def test_load_claims_scaling(tmp_path):
    path = tmp_path / "claims.csv"
    write_claims(path, [("a", 2.0e6, 0, 3.0e6)])
    result = load_claims(path, scale=1e6)
    assert result.records[0].paid == pytest.approx(2.0)
    assert result.records[0].ultimate == pytest.approx(3.0)


def test_load_claims_rejects_bad_rows(tmp_path):
    path = tmp_path / "claims.csv"
    write_claims(path, [
        ("good", 2.0, 0, 3.0),
        ("badz", 2.0, 0, 1.0),     # open with ultimate below paid
        ("badw", -1.0, 1, -1.0),   # nonpositive paid
        ("badn", "x", 1, 1.0),     # unparseable
    ])
    result = load_claims(path)
    assert len(result.records) == 1
    assert len(result.rejected) == 3
    assert all(isinstance(line, int) for line, _ in result.rejected)


def test_load_claims_empty_file(tmp_path):
    path = tmp_path / "claims.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        load_claims(path)


def test_load_claims_bad_header(tmp_path):
    path = tmp_path / "claims.csv"
    path.write_text("a,b,c,d\n1,2,3,4\n")
    with pytest.raises(ValueError):
        load_claims(path)


@pytest.mark.parametrize("scale", [0.0, -1e6, math.nan, math.inf])
def test_load_claims_rejects_bad_scale(tmp_path, scale):
    path = tmp_path / "claims.csv"
    write_claims(path, [("a", 2.0e6, 0, 3.0e6)])
    with pytest.raises(ValueError, match="scale"):
        load_claims(path, scale=scale)


def test_load_claims_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_claims(tmp_path / "nope.csv")


# ---------------------------------------------------------------------------
# selection and baselines


def test_select_top_k_order_statistics():
    records = [make_record(i, w, 1) for i, w in enumerate([5.0, 4.0, 3.0, 2.0, 1.0])]
    sel = select_top_k(records, 2)
    assert sel.x0 == 3.0
    assert [r.paid for r in sel.records] == [5.0, 4.0]


def test_select_top_k_all_tied():
    records = [make_record(i, 2.0, 1) for i in range(5)]
    sel = select_top_k(records, 3)
    assert sel.x0 == 2.0
    assert [r.claim_id for r in sel.records] == ["r0", "r1", "r2"]  # stable order
    assert sel.tied_at_threshold == 3


def test_select_top_k_needs_enough_records():
    records = [make_record(i, float(i + 1), 1) for i in range(3)]
    with pytest.raises(ValueError):
        select_top_k(records, 3)


def test_imputation_index_worked_value():
    x0 = 2.0
    records = [make_record(0, 3.0, 0, math.e * x0), make_record(1, 2.5, 0, math.e * x0)]
    assert imputation_index(records, x0) == pytest.approx(1.0)


def test_imputation_index_rejects_low_ultimates():
    records = [make_record(0, 3.0, 0, 3.0)]
    with pytest.raises(ValueError):
        imputation_index(records, 5.0)


def test_imputation_index_degenerate():
    records = [make_record(0, 2.0, 1), make_record(1, 2.0, 1)]
    with pytest.raises(ValueError):
        imputation_index(records, 2.0)


def test_survival_index_hill_reduction():
    # all settled: settled count over summed log exceedances
    x0 = 1.0
    paids = [2.0, 3.0, 5.0]
    records = [make_record(i, w, 1) for i, w in enumerate(paids)]
    hill = len(paids) / sum(math.log(w / x0) for w in paids)
    assert survival_index(records, x0) == pytest.approx(hill)


def test_survival_index_worked_value():
    x0 = 2.0
    records = [make_record(0, math.e * x0, 1), make_record(1, math.e * x0, 0, 7.0 * x0)]
    assert survival_index(records, x0) == pytest.approx(0.5)


def test_survival_index_needs_settled():
    records = [make_record(0, 3.0, 0, 4.0)]
    with pytest.raises(ValueError):
        survival_index(records, 1.0)


def test_baselines_coincide_when_all_settled():
    records = [make_record(i, w, 1) for i, w in enumerate([2.0, 3.0, 5.0, 8.0])]
    assert imputation_index(records, 1.5) == pytest.approx(survival_index(records, 1.5))


# ---------------------------------------------------------------------------
# synthesis


def test_synthesize_deterministic():
    a = synthesize_claims(100, 1.5, 1.0, 1.5, 0.1, seed=3)
    b = synthesize_claims(100, 1.5, 1.0, 1.5, 0.1, seed=3)
    assert a == b


def test_synthesize_no_censoring_all_settled():
    records = synthesize_claims(200, 1.5, 1.0, 0.0, 0.1, seed=3)
    assert all(r.settled == 1 for r in records)
    assert all(r.ultimate == r.paid for r in records)


def test_synthesize_zero_noise_ultimates_are_true_sizes():
    # the size stream is drawn first, so the uncensored run exposes it
    uncensored = synthesize_claims(150, 1.5, 1.0, 0.0, 0.0, seed=11)
    censored = synthesize_claims(150, 1.5, 1.0, 2.0, 0.0, seed=11)
    for truth, rec in zip(uncensored, censored):
        if rec.settled == 0:
            assert rec.ultimate == pytest.approx(truth.paid)
            assert rec.paid <= rec.ultimate


def test_synthesize_settled_share_tracks_intensity():
    # share targets 1/(1 + censoring)
    records = synthesize_claims(4000, 1.5, 1.0, 1.4938, 0.1, seed=5)
    share = sum(r.settled for r in records) / len(records)
    assert abs(share - 0.401) < 0.03


def test_synthesize_validation():
    with pytest.raises(ValueError):
        synthesize_claims(0, 1.5, 1.0, 1.0, 0.1, seed=1)
    with pytest.raises(ValueError):
        synthesize_claims(10, -1.0, 1.0, 1.0, 0.1, seed=1)


# ---------------------------------------------------------------------------
# curve


@pytest.fixture(scope="module")
def synthetic_records():
    return synthesize_claims(400, 1.5, 1.0, 1.5, 0.1, seed=21)


@pytest.mark.parametrize("variant", ["A", "B"])
def test_tail_curve_bridges_the_baselines(synthetic_records, variant):
    config = TailConfig(k=50, sigma2_grid=(1e-8, 1.0, 1e8), variant=variant)
    curve = run_tail_study(synthetic_records, config)
    assert curve.failures == []
    assert abs(curve.estimate[0] - curve.imputation) / curve.imputation < 1e-3
    assert abs(curve.estimate[-1] - curve.survival) / curve.survival < 1e-3
    assert np.all(curve.tail_index == pytest.approx(1.0 / curve.estimate))


def test_tail_curve_deterministic(synthetic_records):
    config = TailConfig(k=40, sigma2_grid=(0.1, 1.0), variant="A")
    sel_curve = lambda: run_tail_study(synthetic_records, config)
    a, b = sel_curve(), sel_curve()
    assert np.array_equal(a.estimate, b.estimate)


def test_tail_curve_variants_agree_on_moderate_noise(synthetic_records):
    grid = (1e-6, 0.01, 0.1, 0.5, 1.0, 5.0, 50.0, 1e6)
    curve_a = run_tail_study(synthetic_records, TailConfig(k=50, sigma2_grid=grid, variant="A"))
    curve_b = run_tail_study(synthetic_records, TailConfig(k=50, sigma2_grid=grid, variant="B"))
    rel = np.abs(curve_a.estimate - curve_b.estimate) / curve_a.estimate
    print(f"variant A/B max relative gap: {rel.max():.4f}")
    assert rel.max() < 0.10


def test_tail_config_validation():
    with pytest.raises(ValueError):
        TailConfig(k=1, sigma2_grid=(0.1,))
    with pytest.raises(ValueError):
        TailConfig(k=10, sigma2_grid=(0.5, 0.1))
    with pytest.raises(ValueError):
        TailConfig(k=10, sigma2_grid=(-0.1, 0.5))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            TailConfig(k=10, sigma2_grid=(0.5, bad))
    with pytest.raises(ValueError):
        TailConfig(k=10, sigma2_grid=(0.1,), variant="Z")


def test_build_bridge_sample_mixes_atoms_and_bridges(synthetic_records):
    family, measures = build_bridge_sample(synthetic_records, 30, 0.5, "A")
    kinds = {len(m.components) for m in measures}
    assert kinds == {1, 2}  # atoms for settled, tail+gamma for open
    assert family.x0 == select_top_k(synthetic_records, 30).x0


def test_tail_curve_direct_call_matches_pipeline(synthetic_records):
    config = TailConfig(k=30, sigma2_grid=(0.5,), variant="A")
    sel = select_top_k(synthetic_records, 30)
    direct = tail_curve(sel.records, sel.x0, config)
    piped = run_tail_study(synthetic_records, config)
    assert direct.estimate[0] == piped.estimate[0]
