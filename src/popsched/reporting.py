"""Aggregation across seeds: interquartile means, bands, and reports.

The headline statistic is the interquartile mean (IQM): sort the values,
drop floor(k/4) from each end, average what remains. For k < 4 nothing
is dropped and the IQM is the plain mean. Bands are the 25th and 75th
percentiles (linear interpolation), and an algorithm is "within the best
band" when its IQM is at least the best algorithm's lower band edge.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import ExperimentConfig
from .rundir import fmt


def iqm(values: Sequence[float]) -> float:
    """Interquartile mean: mean of the middle half (floor(k/4) trimmed per end)."""
    if len(values) == 0:
        raise ValueError("iqm of empty sequence")
    vals = sorted(float(v) for v in values)
    if any(not math.isfinite(v) for v in vals):
        raise ValueError("iqm requires finite values")
    drop = len(vals) // 4
    kept = vals[drop : len(vals) - drop]
    return sum(kept) / len(kept)


def iqr_bounds(values: Sequence[float]) -> tuple[float, float]:
    """25th and 75th percentiles with linear interpolation."""
    if len(values) == 0:
        raise ValueError("iqr_bounds of empty sequence")
    arr = np.asarray([float(v) for v in values], dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("iqr_bounds requires finite values")
    lo, hi = np.percentile(arr, [25.0, 75.0])
    return float(lo), float(hi)


def best_fitness_by_round(fitness: Sequence[float], num_agents: int) -> list[float]:
    """Best population fitness per round, indexed by round-1, from a fitness column
    in num_agents-row round blocks (the shape rundir.read_run checks)."""
    if not fitness:
        raise ValueError("no metrics rows")
    if len(fitness) % num_agents:
        raise ValueError(f"{len(fitness)} metrics rows do not fill rounds of {num_agents} agents")
    return [max(fitness[i:i + num_agents]) for i in range(0, len(fitness), num_agents)]


@dataclass(frozen=True)
class AlgorithmSummary:
    name: str
    num_runs: int
    iqm: float
    iqr_low: float
    iqr_high: float
    within_best_iqr: bool


def compare_final(scores_by_alg: Mapping[str, Sequence[float]]) -> list[AlgorithmSummary]:
    """Summarize per-seed final scores per algorithm, best IQM first."""
    if not scores_by_alg:
        raise ValueError("no algorithms to compare")
    stats = {}
    for name, scores in scores_by_alg.items():
        lo, hi = iqr_bounds(scores)
        stats[name] = (len(scores), iqm(scores), lo, hi)
    best_low = max(stats.values(), key=lambda s: s[1])[2]
    out = [
        AlgorithmSummary(
            name=name,
            num_runs=n,
            iqm=m,
            iqr_low=lo,
            iqr_high=hi,
            within_best_iqr=m >= best_low,
        )
        for name, (n, m, lo, hi) in stats.items()
    ]
    out.sort(key=lambda s: (-s.iqm, s.name))
    return out


@dataclass(frozen=True)
class AggregateCurve:
    name: str
    rounds: tuple[int, ...]
    iqm: tuple[float, ...]
    iqr_low: tuple[float, ...]
    iqr_high: tuple[float, ...]


def aggregate_curve(name: str, per_seed_curves: Sequence[Sequence[float]]) -> AggregateCurve:
    """Pointwise IQM and band across seeds; curves must share a round grid."""
    if not per_seed_curves:
        raise ValueError(f"{name}: no curves to aggregate")
    lengths = {len(c) for c in per_seed_curves}
    if len(lengths) != 1:
        raise ValueError(f"{name}: runs disagree on round grid, lengths {sorted(lengths)}")
    mids = [iqm(col) for col in zip(*per_seed_curves)]
    # One call for every round's band; same bytes as iqr_bounds per round.
    lows, highs = np.percentile(np.asarray(per_seed_curves, dtype=float), [25.0, 75.0], axis=0)
    return AggregateCurve(
        name=name,
        rounds=tuple(range(1, len(mids) + 1)),
        iqm=tuple(mids),
        iqr_low=tuple(lows.tolist()),
        iqr_high=tuple(highs.tolist()),
    )


def config_label(config: ExperimentConfig) -> str:
    """Stable display label for grouping runs of the same configuration."""
    parts = [config.algorithm]
    if config.algorithm == "pbt" and config.deltas != (1,):
        parts.append(f"delta={config.deltas[0]}")
    if config.algorithm == "mfpbt":
        parts.append("deltas=" + "-".join(str(d) for d in config.deltas))
    if config.symmetric_migration:
        parts.append("sym")
    if config.variance_exploitation:
        parts.append("var")
    if config.algorithm == "pbt_bt":
        parts.append(f"ne={config.elite_capacity}")
        parts.append(f"bt={config.backtrack_period}")
    if len(parts) == 1:
        return parts[0]
    return f"{parts[0]}[{','.join(parts[1:])}]"


def write_report_csv(path, summaries: Sequence[AlgorithmSummary]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["algorithm", "num_runs", "iqm", "iqr_low", "iqr_high", "within_best_iqr"])
        for s in summaries:
            out.writerow([s.name, s.num_runs, fmt(s.iqm), fmt(s.iqr_low), fmt(s.iqr_high),
                          "1" if s.within_best_iqr else "0"])


def write_curves_csv(path, curves: Sequence[AggregateCurve]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["algorithm", "round", "iqm", "iqr_low", "iqr_high"])
        for c in curves:
            for i, r in enumerate(c.rounds):
                out.writerow([c.name, r, fmt(c.iqm[i]), fmt(c.iqr_low[i]), fmt(c.iqr_high[i])])


def render_table(summaries: Sequence[AlgorithmSummary]) -> str:
    header = f"{'algorithm':<28} {'runs':>4} {'iqm':>12} {'iqr_low':>12} {'iqr_high':>12} {'best_band':>9}"
    lines = [header, "-" * len(header)]
    for s in summaries:
        lines.append(
            f"{s.name:<28} {s.num_runs:>4} {s.iqm:>12.6g} {s.iqr_low:>12.6g} "
            f"{s.iqr_high:>12.6g} {'yes' if s.within_best_iqr else 'no':>9}"
        )
    return "\n".join(lines)
