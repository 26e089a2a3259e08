"""Interquartile statistics and report assembly."""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popsched.config import ExperimentConfig
from popsched.core import HyperparamSpace, SpaceEntry
from popsched.reporting import (
    AggregateCurve,
    aggregate_curve,
    best_fitness_by_round,
    compare_final,
    config_label,
    iqm,
    iqr_bounds,
    render_table,
    write_curves_csv,
    write_report_csv,
)
from popsched.rundir import MetricRow


# -------------------------------------------------------------------- iqm

def test_iqm_worked_examples():
    assert iqm([1.0, 2.0, 3.0, 4.0]) == 2.5
    assert iqm([1, 2, 3, 4, 5, 6, 7, 8]) == 4.5
    assert iqm([4.0, 1.0, 3.0, 2.0]) == 2.5  # order never matters
    assert iqm([5.0]) == 5.0
    assert iqm([1.0, 100.0]) == 50.5
    assert iqm([1.0, 2.0, 300.0]) == 101.0  # k < 4 trims nothing
    assert iqm([0.0, 10.0, 10.0, 10.0, 10.0, 50.0]) == 10.0


def test_iqm_trims_outliers_mean_does_not():
    values = [1.0] * 7 + [1e9]
    assert iqm(values) == 1.0
    assert np.mean(values) > 1e8


def test_iqm_errors():
    with pytest.raises(ValueError, match="empty sequence"):
        iqm([])
    with pytest.raises(ValueError, match="finite values"):
        iqm([1.0, math.nan])
    with pytest.raises(ValueError, match="finite values"):
        iqm([1.0, math.inf])


def test_iqm_matches_trim_oracle(rng):
    """Independent formulation: drop floor(k/4) per end after sorting."""
    for _ in range(2000):
        k = int(rng.integers(1, 30))
        vals = rng.normal(size=k).tolist()
        s = sorted(vals)
        drop = k // 4
        kept = s[drop:k - drop]
        assert iqm(vals) == sum(kept) / len(kept)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
       st.floats(-100, 100), st.floats(0.1, 10))
@settings(max_examples=80, deadline=None)
def test_iqm_affine_equivariance(values, shift, scale):
    base = iqm(values)
    assert math.isclose(iqm([v + shift for v in values]), base + shift,
                        rel_tol=0, abs_tol=1e-6)
    assert math.isclose(iqm([v * scale for v in values]), base * scale,
                        rel_tol=1e-9, abs_tol=1e-6)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
@settings(max_examples=80, deadline=None)
def test_iqm_sits_inside_the_band(values):
    lo, hi = iqr_bounds(values)
    mid = iqm(values)
    assert lo - 1e-9 <= mid <= hi + 1e-9
    assert min(values) - 1e-9 <= mid <= max(values) + 1e-9


def test_iqr_bounds_examples():
    lo, hi = iqr_bounds([1.0, 2.0, 3.0, 4.0])
    assert lo == 1.75 and hi == 3.25
    lo, hi = iqr_bounds([7.0])
    assert lo == hi == 7.0
    with pytest.raises(ValueError, match="empty sequence"):
        iqr_bounds([])
    with pytest.raises(ValueError, match="finite values"):
        iqr_bounds([math.nan])


# ------------------------------------------------------- best per round

def row(r, a, f):
    return MetricRow(round=r, agent_id=a, subpop_id=0, fitness=f, hyperparams=(1.0,))


def test_best_fitness_by_round_examples():
    assert best_fitness_by_round([1.0, 3.0, 2.0, 0.5], 2) == [3.0, 2.0]
    assert best_fitness_by_round([1.0, 3.0, 2.0, 0.5], 1) == [1.0, 3.0, 2.0, 0.5]
    with pytest.raises(ValueError, match="no metrics rows"):
        best_fitness_by_round([], 2)
    with pytest.raises(ValueError, match="3 metrics rows do not fill rounds of 2 agents"):
        best_fitness_by_round([1.0, 3.0, 2.0], 2)


def test_best_fitness_matches_naive_max(rng):
    for _ in range(1000):
        rounds = int(rng.integers(1, 8))
        agents = int(rng.integers(1, 6))
        metrics = [
            row(r, a, float(rng.normal()))
            for r in range(1, rounds + 1)
            for a in range(agents)
        ]
        expected = [
            max(m.fitness for m in metrics if m.round == r)
            for r in range(1, rounds + 1)
        ]
        assert best_fitness_by_round([m.fitness for m in metrics], agents) == expected


# --------------------------------------------------------- comparisons

def test_compare_final_orders_by_iqm():
    out = compare_final({
        "rs": [1.0, 1.1, 0.9, 1.0],
        "mfpbt": [2.0, 2.1, 1.9, 2.0],
        "pbt": [1.5, 1.6, 1.4, 1.5],
    })
    assert [s.name for s in out] == ["mfpbt", "pbt", "rs"]
    assert out[0].within_best_iqr
    assert out[0].num_runs == 4
    with pytest.raises(ValueError, match="no algorithms"):
        compare_final({})


def test_within_best_iqr_brute_force(rng):
    for _ in range(100):
        algs = {
            f"alg{j}": rng.normal(loc=rng.uniform(0, 3), size=8).tolist()
            for j in range(int(rng.integers(1, 5)))
        }
        out = compare_final(algs)
        best = max(algs, key=lambda n: iqm(algs[n]))
        best_low = iqr_bounds(algs[best])[0]
        for s in out:
            assert s.iqm == iqm(algs[s.name])
            assert s.within_best_iqr == (iqm(algs[s.name]) >= best_low)
        assert out[0].iqm == iqm(algs[best])
        assert [s.iqm for s in out] == sorted((s.iqm for s in out), reverse=True)


def test_aggregate_curve_pointwise():
    curves = [[1.0, 2.0, 3.0], [3.0, 4.0, 5.0], [2.0, 3.0, 4.0], [10.0, 10.0, 10.0]]
    agg = aggregate_curve("mfpbt", curves)
    assert agg.rounds == (1, 2, 3)
    assert agg.iqm == (iqm([1.0, 3.0, 2.0, 10.0]),
                       iqm([2.0, 4.0, 3.0, 10.0]),
                       iqm([3.0, 5.0, 4.0, 10.0]))
    assert agg.iqr_low[0] == iqr_bounds([1.0, 3.0, 2.0, 10.0])[0]


def test_aggregate_curve_rejects_mismatched_grids():
    with pytest.raises(ValueError, match=r"pbt: runs disagree on round grid, lengths \[2, 3\]"):
        aggregate_curve("pbt", [[1.0, 2.0], [1.0, 2.0, 3.0]])
    with pytest.raises(ValueError, match="no curves"):
        aggregate_curve("pbt", [])


# -------------------------------------------------------------- labels

def space():
    return HyperparamSpace((SpaceEntry("sigma", 0.05, 5.0),))


def cfg(**kw) -> ExperimentConfig:
    base = dict(
        algorithm="rs", num_agents=8, t_ready=5, total_steps=20,
        search_space=space(), trainable={"kind": "two_basin", "params": {}},
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_labels():
    assert config_label(cfg()) == "rs"
    assert config_label(cfg(algorithm="pbt")) == "pbt"
    assert config_label(cfg(algorithm="pbt", deltas=(4,))) == "pbt[delta=4]"
    assert config_label(
        cfg(algorithm="mfpbt", num_subpops=2, deltas=(1, 4))
    ) == "mfpbt[deltas=1-4]"
    assert config_label(
        cfg(algorithm="mfpbt", num_subpops=2, deltas=(1, 4), symmetric_migration=True)
    ) == "mfpbt[deltas=1-4,sym]"
    assert config_label(
        cfg(algorithm="mfpbt", num_subpops=2, deltas=(1, 4), variance_exploitation=True)
    ) == "mfpbt[deltas=1-4,var]"
    assert config_label(
        cfg(algorithm="pbt_bt", elite_capacity=16, backtrack_period=50)
    ) == "pbt_bt[ne=16,bt=50]"


# ------------------------------------------------------------- writers

def test_report_csv_layout(tmp_path):
    out = tmp_path / "report.csv"
    summaries = compare_final({"rs": [1.0, 2.0], "pbt": [3.0, 4.0]})
    write_report_csv(out, summaries)
    lines = out.read_text().splitlines()
    assert lines[0] == "algorithm,num_runs,iqm,iqr_low,iqr_high,within_best_iqr"
    assert lines[1].startswith("pbt,2,3.5,")
    assert lines[1].endswith(",1")
    assert lines[2].startswith("rs,2,1.5,")
    assert lines[2].endswith(",0")


def test_curves_csv_layout(tmp_path):
    out = tmp_path / "curves.csv"
    agg = AggregateCurve("rs", (1, 2), (1.0, 2.0), (0.5, 1.5), (1.5, 2.5))
    write_curves_csv(out, [agg])
    lines = out.read_text().splitlines()
    assert lines[0] == "algorithm,round,iqm,iqr_low,iqr_high"
    assert lines[1] == "rs,1,1.0,0.5,1.5"
    assert lines[2] == "rs,2,2.0,1.5,2.5"


def test_report_and_curves_csv_quote_labels_with_commas(tmp_path):
    label = "mfpbt[deltas=1-4-8-16,sym]"
    report, curves = tmp_path / "report.csv", tmp_path / "curves.csv"
    write_report_csv(report, compare_final({label: [1.0, 2.0], "rs": [0.5, 0.5]}))
    write_curves_csv(curves, [AggregateCurve(label, (1,), (1.0,), (0.5,), (1.5,))])
    with open(report, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == [label, "2", "1.5", "1.25", "1.75", "1"]
    assert all(len(r) == 6 for r in rows)
    with open(curves, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["algorithm", "round", "iqm", "iqr_low", "iqr_high"],
                    [label, "1", "1.0", "0.5", "1.5"]]


def test_render_table_contains_all_algorithms():
    summaries = compare_final({"rs": [1.0, 2.0], "mfpbt": [3.0, 4.0]})
    table = render_table(summaries)
    lines = table.splitlines()
    assert lines[0].split() == ["algorithm", "runs", "iqm", "iqr_low", "iqr_high", "best_band"]
    assert "mfpbt" in lines[2] and "yes" in lines[2]
    assert "rs" in lines[3] and "no" in lines[3]
