"""Whole-system acceptance checks.

Each test here is one acceptance check on the assembled engine, sized so
`pytest -v` reads as a checklist with one pass or fail line per check.
Oracle tests re-derive the expected behavior from scratch (hand
simulations, brute-force elite lists, trimmed means) and demand exact
agreement. Benchmark tests run the frozen two-basin presets on master
seeds 0..19 and assert the decision thresholds recorded in
CALIBRATION.md. Every test also asserts its own wall-clock budget; run
with `-s` to see the measured numbers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import time
from pathlib import Path

import numpy as np
import pytest

from popsched.cli import main as cli_main
from popsched.config import ExperimentConfig
from popsched.core import HyperparamSpace, SpaceEntry, compute_brackets, rank_descending
from popsched.events import ELITE_RESTORE, PERTURBED_CLONE, SURVIVE
from popsched.lineage import replay_run
from popsched.mfpbt import build_external_pool, migrate
from popsched.pbt import pbt_evolution_step
from popsched.presets import get_preset
from popsched.reporting import compare_final, iqm, iqr_bounds
from popsched.runner import run_experiment
from popsched.seeding import seed_hierarchy

from conftest import make_population, streams, weights

BENCH_SEEDS = tuple(range(20))
TRAP_THRESHOLD = 1.5  # below this the population never left the local basin

SIGMA_SPACE = HyperparamSpace((SpaceEntry("sigma", 0.05, 5.0),))


def _two_basin(**params) -> dict:
    return {"kind": "two_basin", "params": {"start_x": -2.0, **params}}


# --------------------------------------------------------------- benchmark

@dataclasses.dataclass(frozen=True)
class VariantOutcome:
    label: str
    finals: tuple[float, ...]
    iqm: float
    iqr_low: float
    iqr_high: float
    trapped: int
    seconds: float


BENCH_VARIANTS = {
    "mfpbt": "twobasin-mfpbt",
    "mfsym": "twobasin-mfpbt-sym",
    "rs": "twobasin-rs",
    "pbt1": "twobasin-pbt-delta1",
    "pbt4": "twobasin-pbt-delta4",
    "pbt8": "twobasin-pbt-delta8",
    "pbt16": "twobasin-pbt-delta16",
}


@pytest.fixture(scope="module")
def bench() -> dict[str, VariantOutcome]:
    """Final best fitness of every two-basin variant on the frozen seeds.

    Runs entirely in memory and is shared by the three comparison tests;
    per-variant wall clock is recorded so each test can assert the budget
    of exactly the variants it depends on.
    """
    table = {}
    for label, preset in BENCH_VARIANTS.items():
        cfg = get_preset(preset)
        start = time.monotonic()
        finals = tuple(run_experiment(cfg, seed=s).final_best() for s in BENCH_SEEDS)
        seconds = time.monotonic() - start
        lo, hi = iqr_bounds(finals)
        table[label] = VariantOutcome(
            label=label,
            finals=finals,
            iqm=iqm(finals),
            iqr_low=lo,
            iqr_high=hi,
            trapped=sum(1 for f in finals if f < TRAP_THRESHOLD),
            seconds=seconds,
        )
        print(f"\n  bench {label:<6} iqm={table[label].iqm!r} iqr_low={lo!r} "
              f"trapped={table[label].trapped}/{len(BENCH_SEEDS)} [{seconds:.1f}s]")
    return table


# ----------------------------------------------------- 1: migration oracle

def _migration_oracle(population, subpop_id, symmetric, variance):
    """Hand simulation of one migration pass from plain snapshot lists.

    Independent of the scheduler code: re-derives the open quarter, the
    outsider pool, the keep/replace walk, and the asymmetry rule, and
    returns the expected (target, source, kind, hyperparams_after).
    """
    per = population.subpop_size
    deltas = population.deltas
    snap = {a.agent_id: a.snapshot_fitness for a in population.agents}
    h = {a.agent_id: a.hyperparams.values for a in population.agents}
    members = sorted(
        range(subpop_id * per, (subpop_id + 1) * per),
        key=lambda i: (-snap[i], i),
    )
    quarter = per // 4
    open_slots = members[2 * quarter : 3 * quarter]
    own_best = members[0]
    outsiders = sorted(
        (i for i in range(population.size) if i // per != subpop_id),
        key=lambda i: (-snap[i], i),
    )
    expected = []
    cursor = 0
    for target in open_slots:
        if cursor >= len(outsiders):
            break
        contender = outsiders[cursor]
        if snap[target] >= snap[contender]:
            continue
        if variance:
            kind, new_h = "migration_weights_only", h[target]
        elif symmetric or deltas[contender // per] >= deltas[subpop_id]:
            kind, new_h = "migration_full", h[contender]
        else:
            kind, new_h = "migration_weights_only", h[own_best]
        expected.append((target, contender, kind, new_h))
        cursor += 1
    return expected


def test_migration_decisions_match_exhaustive_hand_simulation():
    rng = np.random.default_rng(20240817)
    start = time.monotonic()
    kinds_seen = set()
    keeps = replacements = 0
    for case in range(1000):
        m = int(rng.integers(2, 5))
        per = 4 * int(rng.integers(1, 3))
        n = m * per
        deltas = tuple(sorted(rng.choice(np.arange(1, 13), size=m, replace=False).tolist()))
        if case % 2:
            fits = rng.integers(0, 6, size=n).astype(float)  # heavy ties
        else:
            fits = np.round(rng.uniform(0.0, 10.0, size=n), 2)
        symmetric = bool(rng.integers(0, 2))
        variance = case % 5 == 0
        sp = int(rng.integers(0, m))

        pop = make_population(fits.tolist(), deltas=deltas)
        expected = _migration_oracle(pop, sp, symmetric, variance)

        agents = pop.subpop(sp)
        brackets = compute_brackets(
            rank_descending([(a.agent_id, a.snapshot_fitness) for a in agents])
        )
        pool = build_external_pool(pop, sp)
        events = migrate(
            pop, sp, brackets, pool, round_no=7,
            symmetric=symmetric, variance_exploitation=variance,
        )
        got = [
            (e.target_agent_id, e.source_agent_id, e.kind, e.hyperparams_after)
            for e in events
        ]
        assert got == expected, f"case {case}: {got} != {expected}"
        for target, source, kind, new_h in expected:
            agent = pop.agent(target)
            assert agent.hyperparams.values == new_h
            assert weights(agent) == {"x": float(source)}
            assert streams(agent)["seed"] == target  # own streams kept
        kinds_seen.update(kind for _, _, kind, _ in expected)
        replacements += len(expected)
        keeps += len(brackets.migration_open) - len(expected)
    elapsed = time.monotonic() - start
    assert kinds_seen == {"migration_full", "migration_weights_only"}
    assert keeps > 0 and replacements > 0
    print(f"\n  1000 migration cases, {replacements} replacements, "
          f"{keeps} keeps, exact match [{elapsed:.2f}s]")
    assert elapsed < 10.0


# ---------------------------------------------- 2: single-subpop reduction

def test_single_subpopulation_mfpbt_is_byte_identical_to_pbt(tmp_path):
    rng = np.random.default_rng(7)
    start = time.monotonic()
    compared = 0
    for case in range(20):
        t_ready = int(rng.integers(2, 6))
        base = dict(
            num_agents=int(rng.choice([4, 8, 12])),
            num_subpops=1,
            deltas=(1,),
            t_ready=t_ready,
            total_steps=t_ready * int(rng.integers(3, 8)),
            eval_repeats=1,
            search_space=SIGMA_SPACE,
            trainable=_two_basin(forget_prob=float(rng.choice([0.0, 0.1]))),
            variance_exploitation=bool(rng.integers(0, 2)),
            clamp_hyperparams=bool(rng.integers(0, 2)),
        )
        seed = int(rng.integers(0, 10_000))
        dirs = {}
        for alg in ("pbt", "mfpbt", "rs"):
            out = tmp_path / f"case{case}-{alg}"
            run_experiment(ExperimentConfig(algorithm=alg, **base), seed=seed, out_dir=out)
            dirs[alg] = out
        pbt_events = (dirs["pbt"] / "events.jsonl").read_bytes()
        assert pbt_events, "comparison would be vacuous without events"
        assert (dirs["mfpbt"] / "events.jsonl").read_bytes() == pbt_events
        assert (dirs["mfpbt"] / "metrics.csv").read_bytes() == (
            dirs["pbt"] / "metrics.csv"
        ).read_bytes()
        assert (dirs["rs"] / "events.jsonl").read_bytes() == b""
        compared += len(pbt_events.splitlines())
    elapsed = time.monotonic() - start
    print(f"\n  20 configs byte-identical ({compared} events compared) [{elapsed:.2f}s]")
    assert elapsed < 30.0


# -------------------------------------------------- 3: greediness benchmark

def test_greedy_selection_traps_and_multi_frequency_escapes(bench):
    """Thresholds as frozen in CALIBRATION.md from the calibration run."""
    mf, rs, p1 = bench["mfpbt"], bench["rs"], bench["pbt1"]
    print(f"\n  mfpbt iqm={mf.iqm!r} trapped={mf.trapped}")
    print(f"  rs    iqm={rs.iqm!r} iqr_low={rs.iqr_low!r} trapped={rs.trapped}")
    print(f"  pbt1  iqm={p1.iqm!r} iqr_low={p1.iqr_low!r} trapped={p1.trapped}")
    assert mf.iqm >= rs.iqm
    assert mf.iqm > 1.9
    assert rs.iqr_low > 1.9, "random search should never be trapped"
    assert p1.iqr_low < 1.9, "greedy pbt should trap at least a quarter of seeds"
    assert p1.trapped > rs.trapped
    assert p1.trapped > mf.trapped
    runtime = mf.seconds + rs.seconds + p1.seconds
    print(f"  benchmark runtime {runtime:.1f}s (< 120s)")
    assert runtime < 120.0


# -------------------------------------------------- 4: frequency ablation

def test_multi_frequency_matches_or_beats_every_single_frequency(bench):
    mf = bench["mfpbt"]
    singles = [bench[k] for k in ("pbt1", "pbt4", "pbt8", "pbt16")]
    best = max(singles, key=lambda v: v.iqm)
    dominated = sum(1 for v in singles if mf.iqm >= v.iqm)
    print(f"\n  mfpbt iqm={mf.iqm!r}; best single {best.label} "
          f"iqm={best.iqm!r} iqr_low={best.iqr_low!r}; "
          f"strictly dominated {dominated}/4")
    assert mf.iqm >= best.iqr_low, "multi-frequency fell below the best single band"
    summaries = compare_final(
        {v.label: list(v.finals) for v in [mf, *singles]}
    )
    assert next(s for s in summaries if s.name == "mfpbt").within_best_iqr
    runtime = mf.seconds + sum(v.seconds for v in singles)
    print(f"  benchmark runtime {runtime:.1f}s (< 300s)")
    assert runtime < 300.0


# ------------------------------------------------ 5: migration asymmetry

def test_asymmetric_migration_matches_or_beats_symmetric(bench):
    asym, sym = bench["mfpbt"], bench["mfsym"]
    assert len(asym.finals) >= 20
    print(f"\n  asym iqm={asym.iqm!r}; sym iqm={sym.iqm!r} iqr_low={sym.iqr_low!r}")
    assert asym.iqm >= sym.iqr_low
    runtime = asym.seconds + sym.seconds
    print(f"  benchmark runtime {runtime:.1f}s (< 240s)")
    assert runtime < 240.0


# ------------------------------------------- 6: seed-lottery exploitation

def test_variance_exploitation_beats_random_search_on_seed_lottery():
    start = time.monotonic()
    finals = {
        name: [
            run_experiment(get_preset(name), seed=s).final_best()
            for s in BENCH_SEEDS
        ]
        for name in ("seedlottery-mfpbt-var", "seedlottery-rs")
    }
    var_iqm = iqm(finals["seedlottery-mfpbt-var"])
    rs_iqm = iqm(finals["seedlottery-rs"])
    elapsed = time.monotonic() - start
    print(f"\n  variance-exploiting iqm={var_iqm!r} vs rs iqm={rs_iqm!r} [{elapsed:.1f}s]")
    assert var_iqm > rs_iqm
    assert elapsed < 60.0


# ------------------------------------------------------- 7: determinism

def _run_files(run_dir: Path) -> dict[str, bytes]:
    """Every file in a run directory except the wall-clock summary."""
    return {
        str(p.relative_to(run_dir)): p.read_bytes()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file() and p.name != "result.json"
    }


def test_runs_are_byte_identical_across_repeats_and_worker_counts(tmp_path):
    start = time.monotonic()
    configs = {
        "mfpbt": ExperimentConfig(
            algorithm="mfpbt",
            num_agents=8,
            num_subpops=2,
            deltas=(1, 2),
            t_ready=3,
            total_steps=18,
            eval_repeats=2,
            search_space=SIGMA_SPACE,
            trainable=_two_basin(forget_prob=0.05),
        ),
        "pbt_bt": ExperimentConfig(
            algorithm="pbt_bt",
            num_agents=8,
            t_ready=3,
            total_steps=18,
            elite_capacity=5,
            backtrack_period=2,
            checkpoint_every=3,
            search_space=SIGMA_SPACE,
            trainable=_two_basin(forget_prob=0.05),
        ),
    }
    for name, cfg in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg.to_json_dict()))
        out = {}
        for variant, workers in (("first", 1), ("repeat", 1), ("two-workers", 2)):
            d = tmp_path / f"{name}-{variant}"
            argv = ["run", "--config", str(path), "--seed", "42", "--out", str(d)]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli_main(argv + ["--workers", str(workers)]) == 0
            out[variant] = _run_files(d)
        assert set(out["first"]) >= {"config.json", "metrics.csv", "events.jsonl"}
        assert out["repeat"] == out["first"]
        assert out["two-workers"] == out["first"]
    elapsed = time.monotonic() - start
    print(f"\n  2 configs x 3 runs byte-identical [{elapsed:.1f}s]")
    assert elapsed < 60.0


# --------------------------------------------------- 8: long-run replay

def test_best_agent_replay_is_bit_exact_over_200_rounds(tmp_path):
    start = time.monotonic()
    preset = get_preset("twobasin-mfpbt")
    cfg = dataclasses.replace(preset, total_steps=200 * preset.t_ready)
    assert cfg.num_rounds == 200
    for seed in range(5):
        out = tmp_path / f"seed{seed}"
        run_experiment(cfg, seed=seed, out_dir=out)
        report = replay_run(out, verify_rounds=True)
        assert report.final_round == 200
        assert report.exact, (
            f"seed {seed}: replayed {report.replayed_fitness!r} "
            f"!= logged {report.logged_fitness!r}"
        )
    elapsed = time.monotonic() - start
    print(f"\n  5 seeds x 200 rounds replayed bit-exact [{elapsed:.1f}s]")
    assert elapsed < 60.0


# ------------------------------------------------------- 9: IQM oracle

def _trimmed_mean_oracle(values) -> float:
    xs = sorted(float(v) for v in values)
    lo = len(xs) // 4
    hi = len(xs) - lo
    return sum(xs[lo:hi]) / (hi - lo)


def test_iqm_matches_independent_trimmed_mean_oracle():
    rng = np.random.default_rng(99)
    start = time.monotonic()
    assert iqm([1.0, 2.0, 3.0, 4.0]) == 2.5
    assert iqm([5.0, 1.0, 7.0, 3.0, 8.0, 2.0, 6.0, 4.0]) == 4.5
    for case in range(10_000):
        k = int(rng.integers(4, 101))
        if case % 4 == 0:
            xs = rng.integers(-3, 4, size=k).astype(float).tolist()  # ties
        else:
            xs = rng.normal(0.0, 10.0, size=k).tolist()
        assert iqm(xs) == _trimmed_mean_oracle(xs)
    elapsed = time.monotonic() - start
    print(f"\n  10000 lists, sizes 4..100, exact [{elapsed:.2f}s]")
    assert elapsed < 5.0


# --------------------------------------- 10: evolution-step statistics

def test_evolution_step_statistics_match_truncation_design():
    rng = np.random.default_rng(4242)
    evolve_rngs = {i: seed_hierarchy(0, i, "evolve") for i in range(16)}
    start = time.monotonic()
    up = down = 0
    for case in range(10_000):
        n = 4 * int(rng.integers(1, 5))
        fits = rng.integers(0, 5, size=n).astype(float) + rng.uniform(0, 1, size=n).round(1)
        pop = make_population(fits.tolist())
        before_h = {a.agent_id: a.hyperparams.values for a in pop.agents}
        snap = {a.agent_id: a.snapshot_fitness for a in pop.agents}
        events = pbt_evolution_step(pop.agents, evolve_rngs, 1, 0)

        order = sorted(range(n), key=lambda i: (-snap[i], i))
        quarter = n // 4
        winners, losers = order[:quarter], order[3 * quarter :]
        survive = [e for e in events if e.kind == SURVIVE]
        clones = [e for e in events if e.kind == PERTURBED_CLONE]
        assert len(events) == n
        assert len(clones) == quarter
        assert [e.target_agent_id for e in survive] == order[: 3 * quarter]
        assert [e.target_agent_id for e in clones] == losers
        for k, e in enumerate(clones):
            winner = winners[k % len(winners)]
            assert e.source_agent_id == winner
            w = before_h[winner][0]
            assert e.hyperparams_after[0] in (w * 0.8, w * 1.25)
            if e.hyperparams_after[0] == w * 1.25:
                up += 1
            else:
                down += 1
            agent = pop.agent(e.target_agent_id)
            assert agent.hyperparams.values == e.hyperparams_after
            assert weights(agent) == {"x": float(winner)}
            assert streams(agent)["seed"] == e.target_agent_id
        for w in winners:
            assert pop.agent(w).hyperparams.values == before_h[w]
    freq = up / (up + down)
    elapsed = time.monotonic() - start
    print(f"\n  10000 rankings, {up + down} perturbations, "
          f"up-factor frequency {freq:.4f} [{elapsed:.1f}s]")
    assert abs(freq - 0.5) < 0.02
    assert elapsed < 10.0


# --------------------------------------------- 11: backtracking archive

def test_elite_archive_matches_brute_force_and_best_never_regresses(tmp_path):
    start = time.monotonic()
    cfg = ExperimentConfig(
        algorithm="pbt_bt",
        num_agents=8,
        t_ready=5,
        total_steps=150,
        elite_capacity=6,
        backtrack_period=4,
        search_space=SIGMA_SPACE,
        trainable=_two_basin(forget_prob=0.05),
    )
    res = run_experiment(cfg, seed=3)
    restores = [e for e in res.events if e.kind == ELITE_RESTORE]
    assert restores, "the run never backtracked"
    assert all(e.source_round is not None and e.source_round <= e.round for e in restores)
    best_so_far = -np.inf
    for value in res.best_by_round():
        best_so_far = max(best_so_far, value)
        assert best_so_far >= value

    rng = np.random.default_rng(11)
    for case in range(200):
        rounds = int(rng.integers(3, 7))
        t_ready = int(rng.integers(1, 4))
        capacity = int(rng.integers(1, 9))
        tiny = ExperimentConfig(
            algorithm="pbt_bt",
            num_agents=int(rng.choice([4, 8])),
            t_ready=t_ready,
            total_steps=t_ready * rounds,
            elite_capacity=capacity,
            backtrack_period=int(rng.integers(1, 4)),
            checkpoint_every=rounds,
            search_space=SIGMA_SPACE,
            trainable=_two_basin(forget_prob=0.1),
        )
        out = tmp_path / f"case{case}"
        res = run_experiment(tiny, seed=int(rng.integers(0, 100_000)), out_dir=out)
        with open(out / "checkpoints" / f"round_{rounds:06d}.json") as fh:
            archive = json.load(fh)["archive"]
        got = [(e["fitness"], e["agent_id"], e["round"]) for e in archive["entries"]]
        rows = sorted(
            ((r.fitness, r.agent_id, r.round) for r in res.metrics),
            key=lambda t: (-t[0], t[1], t[2]),
        )
        assert got == rows[:capacity], f"case {case}"
    elapsed = time.monotonic() - start
    print(f"\n  200 archives match brute force [{elapsed:.1f}s]")
    assert elapsed < 60.0
