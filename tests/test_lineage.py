"""Event log validation, schedule reconstruction, and bit-exact replay."""

from __future__ import annotations

import pytest

from popsched import lineage
from popsched.config import ExperimentConfig
from popsched.core import HyperparamSpace, SpaceEntry
from popsched.events import (
    ELITE_RESTORE,
    MIGRATION_FULL,
    PERTURBED_CLONE,
    SURVIVE,
    EvolutionEvent,
)
from popsched.lineage import (
    LineageError,
    ScheduleSegment,
    reconstruct_schedule,
    replay_run,
    replay_schedule,
    schedule_csv_lines,
    validate_event_log,
)
from popsched.runner import run_experiment


def ev(round=1, target=3, kind=PERTURBED_CLONE, source=0, source_round=None,
       h=(2.0,), fitness=1.0, subpop=0):
    return EvolutionEvent(
        round=round,
        subpop_id=subpop,
        target_agent_id=target,
        kind=kind,
        source_agent_id=source,
        source_round=source_round,
        hyperparams_after=h,
        fitness_snapshot=fitness,
    )


def survive(round, target, h=(1.0,), fitness=1.0):
    return ev(round=round, target=target, kind=SURVIVE, source=None, h=h,
              fitness=fitness)


# ----------------------------------------------------------- validation

def test_log_rejects_round_zero():
    with pytest.raises(LineageError, match="round 0: rounds start at 1"):
        validate_event_log([ev(round=0)])


def test_log_rejects_decreasing_rounds():
    with pytest.raises(LineageError, match="round 2: rounds decrease after 3"):
        validate_event_log([ev(round=3), ev(round=2)])


def test_log_rejects_out_of_range_agents():
    with pytest.raises(LineageError, match="agent id 5 out of range"):
        validate_event_log([ev(target=5)], num_agents=4)
    with pytest.raises(LineageError, match="agent id -1 out of range"):
        validate_event_log([ev(source=-1)])


def test_log_rejects_self_clone():
    with pytest.raises(LineageError, match="agent 3 clones itself"):
        validate_event_log([ev(target=3, source=3)])


def test_log_rejects_source_round_on_non_restore():
    with pytest.raises(LineageError, match="perturbed_clone carries a source round"):
        validate_event_log([ev(source_round=1)])
    with pytest.raises(LineageError, match="migration_full carries a source round"):
        validate_event_log([ev(kind=MIGRATION_FULL, source_round=1)])


def test_log_rejects_bad_restore_rounds():
    with pytest.raises(LineageError, match="elite restore from round None"):
        validate_event_log([ev(kind=ELITE_RESTORE, source_round=None)])
    with pytest.raises(LineageError, match="elite restore from round 5"):
        validate_event_log([ev(round=3, kind=ELITE_RESTORE, source_round=5)])
    with pytest.raises(LineageError, match="elite restore from round 0"):
        validate_event_log([ev(round=3, kind=ELITE_RESTORE, source_round=0)])


def test_log_rejects_double_rewrite():
    with pytest.raises(LineageError, match="round 2: agent 3 rewritten twice"):
        validate_event_log([ev(round=2), ev(round=2, source=1)])
    # Two survives for one agent are tolerated; rewrite after survive is fine.
    validate_event_log([survive(2, 3), ev(round=2, target=3)])


def test_log_rejects_non_finite_snapshot():
    with pytest.raises(LineageError, match="non-finite fitness snapshot"):
        validate_event_log([ev(fitness=float("inf"))])


def test_log_accepts_well_formed_sequence():
    validate_event_log(
        [
            survive(1, 0),
            ev(round=1, target=3, source=0),
            ev(round=2, target=1, kind=MIGRATION_FULL, source=2),
            ev(round=5, target=2, kind=ELITE_RESTORE, source=0, source_round=1),
        ],
        num_agents=4,
    )


# ------------------------------------------------------- reconstruction

def test_schedule_of_untouched_agent_is_single_init_segment():
    segs = reconstruct_schedule([], agent_id=2, final_round=7,
                                initial_hyperparams={2: (0.5,)})
    assert segs == [
        ScheduleSegment(start_round=0, end_round=7, agent_id=2, subpop_id=0,
                        hyperparams=(0.5,), trained=True, kind="init")
    ]
    assert segs[0].num_rounds == 7


def test_schedule_requires_root_hyperparams():
    with pytest.raises(LineageError, match="no initial hyperparameters for root agent 2"):
        reconstruct_schedule([], agent_id=2, final_round=3, initial_hyperparams={0: (1.0,)})


def test_schedule_rejects_bad_final_round():
    with pytest.raises(LineageError, match="final_round must be >= 1"):
        reconstruct_schedule([], agent_id=0, final_round=0, initial_hyperparams={0: (1.0,)})


def test_schedule_splits_at_clone():
    events = [survive(5, 0, h=(1.0,)), ev(round=5, target=3, source=0, h=(2.0,))]
    segs = reconstruct_schedule(events, agent_id=3, final_round=9,
                                initial_hyperparams={0: (1.0,), 3: (9.9,)},
                                subpop_size=2)
    assert segs == [
        ScheduleSegment(0, 5, 0, 0, (1.0,), True, "init"),
        ScheduleSegment(5, 9, 3, 1, (2.0,), True, "perturbed_clone"),
    ]


def test_schedule_is_pre_barrier_at_the_final_round():
    """The round-r snapshot predates round r's own events."""
    events = [ev(round=5, target=3, source=0, h=(2.0,))]
    segs = reconstruct_schedule(events, agent_id=3, final_round=5,
                                initial_hyperparams={3: (9.9,)})
    assert segs == [ScheduleSegment(0, 5, 3, 0, (9.9,), True, "init")]


def test_schedule_follows_same_round_chains_in_file_order():
    """Agent 7 imports what agent 3 already received earlier this round."""
    events = [
        ev(round=5, target=3, source=0, h=(2.0,)),
        ev(round=5, target=7, kind=MIGRATION_FULL, source=3, h=(3.0,)),
    ]
    init_h = {0: (1.0,), 3: (9.9,), 7: (7.7,)}
    segs = reconstruct_schedule(events, agent_id=7, final_round=9,
                                initial_hyperparams=init_h)
    # The zero-length hand-off through agent 3 leaves no trained segment.
    assert segs == [
        ScheduleSegment(0, 5, 0, 0, (1.0,), True, "init"),
        ScheduleSegment(5, 9, 7, 0, (3.0,), True, "migration_full"),
    ]

    # The same events read in the other direction: agent 3's own lineage.
    segs = reconstruct_schedule(events, agent_id=3, final_round=9,
                                initial_hyperparams=init_h)
    assert segs == [
        ScheduleSegment(0, 5, 0, 0, (1.0,), True, "init"),
        ScheduleSegment(5, 9, 3, 0, (2.0,), True, "perturbed_clone"),
    ]


def test_schedule_inserts_archive_dwell():
    events = [ev(round=8, target=2, kind=ELITE_RESTORE, source=0, source_round=3,
                 h=(1.5,))]
    segs = reconstruct_schedule(events, agent_id=2, final_round=10,
                                initial_hyperparams={0: (1.0,), 2: (2.2,)})
    assert segs == [
        ScheduleSegment(0, 3, 0, 0, (1.0,), True, "init"),
        ScheduleSegment(3, 8, 0, 0, None, False, "archive_dwell"),
        ScheduleSegment(8, 10, 2, 0, (1.5,), True, "elite_restore"),
    ]
    trained = sum(s.num_rounds for s in segs if s.trained)
    assert trained == 5
    assert sum(s.num_rounds for s in segs) == 10


def test_schedule_same_round_restore_has_no_dwell():
    events = [ev(round=8, target=2, kind=ELITE_RESTORE, source=0, source_round=8,
                 h=(1.5,))]
    segs = reconstruct_schedule(events, agent_id=2, final_round=10,
                                initial_hyperparams={0: (1.0,), 2: (2.2,)})
    assert segs == [
        ScheduleSegment(0, 8, 0, 0, (1.0,), True, "init"),
        ScheduleSegment(8, 10, 2, 0, (1.5,), True, "elite_restore"),
    ]


# --------------------------------------------------- real-run invariants

def mfpbt_config(**overrides) -> ExperimentConfig:
    base = dict(
        algorithm="mfpbt",
        num_agents=8,
        num_subpops=2,
        deltas=(1, 2),
        t_ready=5,
        total_steps=60,
        search_space=HyperparamSpace((SpaceEntry("sigma", 0.05, 5.0),)),
        trainable={"kind": "two_basin", "params": {}},
    )
    base.update(overrides)
    cfg = ExperimentConfig(**base)
    cfg.validate()
    return cfg


def test_schedules_tile_every_agent_and_round():
    res = run_experiment(mfpbt_config(), seed=17)
    init_h = {i: v.values for i, v in res.initial_hyperparams.items()}
    for final_round in range(1, 13):
        events = [e for e in res.events if e.round <= final_round]
        for aid in range(8):
            segs = reconstruct_schedule(events, aid, final_round, init_h,
                                        subpop_size=4)
            assert segs[0].start_round == 0
            assert segs[0].kind == "init"
            assert segs[-1].end_round == final_round
            assert segs[-1].agent_id == aid
            for a, b in zip(segs, segs[1:]):
                assert a.end_round == b.start_round
            for s in segs:
                assert s.num_rounds >= 1
                assert s.trained and s.hyperparams is not None
                assert s.subpop_id == s.agent_id // 4


def test_replay_reproduces_logged_fitness_bit_for_bit():
    cfg = mfpbt_config()
    res = run_experiment(cfg, seed=23)
    init_h = {i: v.values for i, v in res.initial_hyperparams.items()}
    logged = {(r.round, r.agent_id): r.fitness for r in res.metrics}
    final = cfg.num_rounds
    for aid in range(8):
        segs = reconstruct_schedule(res.events, aid, final, init_h, subpop_size=4)
        _, fitness = replay_schedule(
            segs, cfg.trainable, 23, cfg.t_ready, ("sigma",),
            expected_fitness=logged,
        )
        assert fitness == logged[(final, aid)]


def test_replay_reports_first_divergence():
    cfg = mfpbt_config(total_steps=30)
    res = run_experiment(cfg, seed=29)
    init_h = {i: v.values for i, v in res.initial_hyperparams.items()}
    logged = {(r.round, r.agent_id): r.fitness for r in res.metrics}
    segs = reconstruct_schedule(res.events, 0, 6, init_h, subpop_size=4)
    root = segs[0].agent_id
    logged[(1, root)] = 123.456
    with pytest.raises(LineageError,
                       match=f"replay diverges at round 1 on agent {root}: "):
        replay_schedule(segs, cfg.trainable, 29, cfg.t_ready, ("sigma",),
                        expected_fitness=logged)


def test_replay_rejects_empty_schedule():
    with pytest.raises(LineageError, match="empty schedule"):
        replay_schedule([], {"kind": "two_basin"}, 0, 5, ("sigma",))


# ------------------------------------------------------------ replay_run

def test_replay_run_from_directory(tmp_path):
    out = tmp_path / "run"
    cfg = mfpbt_config()
    run_experiment(cfg, seed=31, out_dir=out)

    report = replay_run(out)
    assert report.exact
    assert report.final_round == 12
    assert report.segments[0].kind == "init"
    assert report.replayed_fitness == report.logged_fitness

    # Every agent replays exactly, with per-round verification on.
    for aid in range(8):
        rep = replay_run(out, agent_id=aid, verify_rounds=True)
        assert rep.exact
        assert rep.agent_id == aid

    # Earlier rounds replay too.
    rep = replay_run(out, agent_id=3, final_round=5)
    assert rep.exact


def test_replay_run_backtracking_lineages(tmp_path):
    out = tmp_path / "bt"
    cfg = ExperimentConfig(
        algorithm="pbt_bt",
        num_agents=4,
        t_ready=5,
        total_steps=45,
        search_space=HyperparamSpace((SpaceEntry("sigma", 0.05, 5.0),)),
        trainable={"kind": "two_basin", "params": {"forget_prob": 0.05}},
        elite_capacity=2,
        backtrack_period=3,
    )
    cfg.validate()
    res = run_experiment(cfg, seed=37, out_dir=out)
    assert any(e.kind == ELITE_RESTORE for e in res.events)
    for aid in range(4):
        rep = replay_run(out, agent_id=aid, verify_rounds=True)
        assert rep.exact


def test_replay_run_error_cases(tmp_path):
    out = tmp_path / "run"
    run_experiment(mfpbt_config(total_steps=20), seed=2, out_dir=out)
    with pytest.raises(LineageError, match="no metrics row for agent 99"):
        replay_run(out, agent_id=99)
    with pytest.raises(LineageError, match="no metrics rows at round 99"):
        replay_run(out, final_round=99)


def test_replay_run_validates_each_event_once(tmp_path, monkeypatch):
    """replay_run checks the whole log once; reconstruction does not check it again."""
    out = tmp_path / "run"
    res = run_experiment(mfpbt_config(), seed=31, out_dir=out)
    checked = []
    real_check = lineage._check_event_columns

    def check(rounds, *args):
        checked.append(len(rounds))
        return real_check(rounds, *args)

    monkeypatch.setattr(lineage, "_check_event_columns", check)
    assert replay_run(out, verify_rounds=True).exact
    assert checked == [len(res.events)]


# ------------------------------------------------------------ csv export

def test_schedule_csv_layout():
    segs = [
        ScheduleSegment(0, 3, 0, 0, (1.0,), True, "init"),
        ScheduleSegment(3, 8, 0, 0, None, False, "archive_dwell"),
        ScheduleSegment(8, 10, 2, 1, (1.5,), True, "elite_restore"),
    ]
    lines = schedule_csv_lines(segs, ("sigma",))
    assert lines[0] == "start_round,end_round,agent_id,subpop_id,trained,kind,sigma"
    assert lines[1] == "0,3,0,0,1,init,1.0"
    assert lines[2] == "3,8,0,0,0,archive_dwell,"
    assert lines[3] == "8,10,2,1,1,elite_restore,1.5"
