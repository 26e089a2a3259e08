"""Block decoding of events.jsonl and metrics.csv against line-by-line decoding.

The readers decode a block of lines per C call. Whatever they accept
must equal what `event_from_json_line` (per event line) and per-cell
`int`/`float` conversion (per metrics row) make of the same text. An
event line is accepted only as `to_json_line` writes it, and a refused
line is named by file and line.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popsched import events
from popsched.core import HyperparamSpace, SpaceEntry
from popsched.events import (
    SURVIVE,
    LineageError,
    event_from_json_line,
    read_events,
    validate_event_log,
)
from popsched.presets import get_preset
from popsched.rundir import RunDir, _metric_table, fmt, read_metrics
from popsched.runner import run_experiment

from test_runner import small_config


def line(round=1, target=0, kind="perturbed_clone", source=1, **extra) -> dict:
    rec = {
        "round": round,
        "subpop_id": 0,
        "target_agent_id": target,
        "kind": kind,
        "source_agent_id": None if kind == SURVIVE else source,
        "source_round": None,
        "hyperparams_after": [0.5, 0.25],
        "fitness_snapshot": 1.5,
    }
    rec.update(extra)
    return rec


def dumps(rec: dict) -> str:
    return json.dumps(rec, separators=(",", ":"))


def per_line(text: str) -> list:
    return [event_from_json_line(s.strip()) for s in text.splitlines() if s.strip()]


def assert_readers_match_per_line(path) -> None:
    """read_events equals per-line decoding of path."""
    want = per_line(path.read_text(encoding="utf-8"))
    # repr, not ==: 2 == 2.0, but an int where per-line decoding gives a float is a fault.
    assert repr(read_events(path)) == repr(want)


def write_lines(tmp_path, lines: list[str]):
    path = tmp_path / "events.jsonl"
    path.write_text("".join(s + "\n" for s in lines), encoding="utf-8")
    return path


def rejects_naming(path, line_no: int) -> None:
    with pytest.raises(ValueError, match=rf"^{path}: line {line_no}: "):
        read_events(path)


# ------------------------------------------------------------ events.jsonl

def test_a_written_log_is_decoded_in_blocks_not_line_by_line(tmp_path, monkeypatch):
    cfg = small_config("pbt_bt", num_agents=8, total_steps=75, elite_capacity=4,
                       backtrack_period=3)
    run_experiment(cfg, seed=2, out_dir=tmp_path)
    path = tmp_path / "events.jsonl"
    want = per_line(path.read_text(encoding="utf-8"))
    assert {ev.kind for ev in want} >= {SURVIVE, "perturbed_clone", "elite_restore"}

    def fail(line):
        raise AssertionError("decoded line by line")

    monkeypatch.setattr(events, "event_from_json_line", fail)
    assert read_events(path) == want


def test_two_objects_on_one_line_plus_one_split_in_a_list_is_rejected(tmp_path):
    split = dumps(line(round=2)).split("0.5,")
    lines = [
        dumps(line()),
        dumps(line(target=2)) + "," + dumps(line(target=3)),
        split[0] + "0.5",
        split[1],
    ]
    assert len(json.loads("[" + ",".join(lines) + "]")) == len(lines)  # the count agrees
    rejects_naming(write_lines(tmp_path, lines), 2)


def test_two_objects_on_one_line_plus_one_split_in_a_string_is_rejected(tmp_path):
    whole = dumps(line(round=2))
    cut = whole.index('"perturbed_clone"')
    lines = [
        dumps(line()),
        dumps(line(target=2)) + "," + dumps(line(target=3)),
        whole[:cut] + '"x}',
        '{y"' + whole[cut + len('"perturbed_clone"'):],
    ]
    # The count agrees and every line is braced: only the kind gives it away.
    assert len(json.loads("[" + ",".join(lines) + "]")) == len(lines)
    assert all(s[0] == "{" and s[-1] == "}" for s in lines)
    rejects_naming(write_lines(tmp_path, lines), 2)


def test_a_line_holding_two_objects_is_rejected(tmp_path):
    lines = [dumps(line()), dumps(line(target=2)) + "," + dumps(line(target=3))]
    rejects_naming(write_lines(tmp_path, lines), 2)


@pytest.mark.parametrize(
    "odd",
    [
        dict(note="kept as today"),
        dict(target_agent_id="3"),
        dict(round=2.0),
        dict(subpop_id=True),
        dict(source_agent_id="1"),
        dict(source_round=1.5),
        dict(fitness_snapshot=2),
        dict(hyperparams_after=[1, 0.5]),
        dict(hyperparams_after="12"),
        dict(round=2.7),
        dict(target_agent_id=1.9),
    ],
    ids=lambda odd: "-".join(f"{k}={v!r}" for k, v in odd.items()),
)
def test_records_outside_the_writer_format_are_read_exactly_as_line_by_line(tmp_path, odd):
    """Line by line refuses each of them, so the block readers refuse them too."""
    path = write_lines(tmp_path, [
        dumps(line(kind=SURVIVE)),
        dumps({**line(round=2), **odd}),
        dumps(line(round=3, target=1, kind=SURVIVE)),
    ])
    rejects_naming(path, 2)
    with pytest.raises(ValueError):
        event_from_json_line(dumps({**line(round=2), **odd}))


def test_blank_lines_are_skipped_and_counted(tmp_path):
    good = [dumps(line(round=r, target=r + 1)) for r in range(1, 4)]  # each source is agent 1
    path = write_lines(tmp_path, ["", good[0], "   ", "\t", good[1], "", good[2], ""])
    assert_readers_match_per_line(path)
    path = write_lines(tmp_path, ["", good[0], "   ", '{"round":2}'])
    rejects_naming(path, 4)


@pytest.mark.parametrize("bad_line", [999, 1000, 1001, 1002])
def test_a_bad_line_is_named_on_either_side_of_a_block_boundary(tmp_path, bad_line):
    lines = [dumps(line(round=1 + i // 4, target=i % 4, kind=SURVIVE)) for i in range(1500)]
    lines[bad_line - 1] = lines[bad_line - 1][:20]
    rejects_naming(write_lines(tmp_path, lines), bad_line)


@pytest.mark.parametrize("fault", ["round decreases", "rewritten twice"])
@pytest.mark.parametrize("bad_line", [1000, 1001, 1002])
def test_the_check_carries_the_round_and_its_rewrites_across_a_block_boundary(
    tmp_path, bad_line, fault
):
    """The last round and the agents rewritten in it go on into the next block."""
    lines = [dumps(line(round=1 + i // 4, target=i % 4, kind=SURVIVE)) for i in range(1500)]
    if fault == "round decreases":
        lines[bad_line - 1] = dumps(line(round=1, kind=SURVIVE))
        reason = f"round 1: rounds decrease after {1 + (bad_line - 2) // 4}"
    else:  # agent 0 cloned twice in round 250, on the bad line and the one before it
        lines[996:bad_line] = [dumps(line(round=250, kind=SURVIVE))] * (bad_line - 998) + [
            dumps(line(round=250, target=0, source=source)) for source in (1, 2)]
        reason = "round 250: agent 0 rewritten twice"
    path = write_lines(tmp_path, lines)
    with pytest.raises(LineageError, match=rf"^{path}: line {bad_line}: event log broken at {reason}$"):
        read_events(path)


def test_a_record_the_event_type_refuses_is_named(tmp_path):
    path = write_lines(tmp_path, [
        dumps(line(kind=SURVIVE)),
        dumps(line(kind=SURVIVE, source_agent_id=1)),
    ])
    rejects_naming(path, 2)
    path = write_lines(tmp_path, [dumps(line(kind="promotion"))])
    rejects_naming(path, 1)


def test_resume_decodes_each_event_line_once(tmp_path, monkeypatch):
    cfg = small_config("pbt_bt", num_agents=8, total_steps=75, elite_capacity=4,
                       backtrack_period=3, checkpoint_every=1)
    run_experiment(cfg, seed=2, out_dir=tmp_path, stop_after_round=12)
    (tmp_path / "checkpoints" / "round_000012.json").unlink()  # resume truncates to 11
    num_lines = len((tmp_path / "events.jsonl").read_text().splitlines())
    decoded, loads = [], []
    real_block, real_loads = events._block_columns, json.loads

    def block(path, lines, first):
        decoded.extend(lines)
        return real_block(path, lines, first)

    def counting_loads(text, *args, **kwargs):
        loads.append(text[:1])
        return real_loads(text, *args, **kwargs)

    monkeypatch.setattr(events, "_block_columns", block)
    monkeypatch.setattr(json, "loads", counting_loads)
    res = run_experiment(cfg, seed=2, out_dir=tmp_path, resume=True)
    assert len(decoded) == num_lines  # every line of events.jsonl, once
    assert loads.count("{") == 2  # checkpoint and config.json: no event line is decoded on its own
    assert res.metrics[-1].round == cfg.num_rounds


@pytest.mark.parametrize("blanks", [0, 2])
@pytest.mark.parametrize(
    "first,message,line_no",
    [
        (line(round=2, kind=SURVIVE, fitness_snapshot=float("inf")), "round 2: non-finite fitness", 1),
        (line(round=0, kind=SURVIVE), "round 0: rounds start at 1", 1),
        (line(round=2, target=9, kind=SURVIVE), "round 2: agent id 9 out of range", 1),
        (line(round=3), "round 2: rounds decrease after 3", 2),
    ],
)
def test_validation_names_the_first_broken_event_in_file_order(tmp_path, first, message, line_no,
                                                                 blanks):
    """A survive fault ahead of a clone fault is the one named, read or in memory; a
    reader names its line, counting the blank lines before it."""
    path = write_lines(tmp_path, [""] * blanks + [
        dumps(first),
        dumps(line(round=2, target=3, source=3)),  # clones itself
    ])
    named = rf"^{path}: line {blanks + line_no}: event log broken at {message}"
    with pytest.raises(LineageError, match=named):
        read_events(path, num_agents=8)
    with pytest.raises(LineageError, match=f"^event log broken at {message}"):
        validate_event_log(per_line(path.read_text(encoding="utf-8")), 8)


def test_writing_events_leaves_no_dict_on_each_event():
    """Reading an event's __dict__ (vars) would keep a dict on it, about 64 B apiece."""
    evs = [event_from_json_line(dumps(line(round=1 + i // 4, target=i % 4))) for i in range(1000)]
    tracemalloc.start()
    try:
        for ev in evs:
            ev.to_json_line()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 16_000


def test_an_in_memory_run_keeps_at_most_32_bytes_per_metric_row():
    """A row's fitness is 8 B in a column and its hyperparameters one reference to the
    tuple its agent holds; a MetricRow with its float object took about 99 B."""
    config = get_preset("twobasin-rs")  # random search: no events
    run_experiment(config, seed=0, stop_after_round=2)  # what a first run caches is not the result's
    tracemalloc.start()
    try:
        res = run_experiment(config, seed=0)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.events == [] and len(res.metrics) == config.num_agents * config.num_rounds
    assert retained / len(res.metrics) <= 32


def test_a_resumed_run_keeps_at_most_32_bytes_per_metric_row(tmp_path):
    """Resume reads rounds 1..200 of 400 back from metrics.csv; rows with equal vectors share
    one tuple there, as the rows of a run in one go share the tuple their agent holds. A tuple
    per row read took about 42 B a row; the warm-up resume keeps one-time caches out."""
    config = dataclasses.replace(get_preset("twobasin-rs"), checkpoint_every=200)
    for out in (tmp_path / "warm", tmp_path / "run"):
        run_experiment(config, seed=0, out_dir=out, stop_after_round=200)
    run_experiment(config, seed=0, out_dir=tmp_path / "warm", resume=True)
    tracemalloc.start()
    try:
        res = run_experiment(config, seed=0, out_dir=tmp_path / "run", resume=True)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.events == [] and len(res.metrics) == config.num_agents * config.num_rounds
    assert retained / len(res.metrics) <= 32


EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-7, float("nan"), float("inf"), float("-inf")]
any_float = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS)
an_id = st.integers(min_value=0, max_value=2**63)


@settings(max_examples=300, deadline=None)
@given(ids=st.tuples(an_id, an_id, an_id, an_id), kind=st.sampled_from(events.EVENT_KINDS),
       source_round=st.none() | an_id, hyperparams=st.lists(any_float, max_size=4), fitness=any_float)
def test_to_json_line_is_what_json_dumps_writes(ids, kind, source_round, hyperparams, fitness):
    rnd, subpop, target, source = ids
    ev = events.EvolutionEvent(rnd, subpop, target, kind, None if kind == SURVIVE else source,
                               source_round, tuple(hyperparams), fitness)
    values = [getattr(ev, k) for k in events._FIELDS]
    assert ev.to_json_line() == json.dumps(dict(zip(events._FIELDS, values)), separators=(",", ":"))


# ------------------------------------------------------------- metrics.csv

def read_metric_columns(path) -> list[list]:
    """metrics.csv by column as rundir's one np.loadtxt parse reads it: rounds, agent ids,
    subpop ids, fitness, then one column per hyperparameter."""
    table = _metric_table(path)
    return [table[name].tolist() for name in table.dtype.names]


def per_cell(path) -> list[list]:
    """metrics.csv converted cell by cell with int and float."""
    text = path.read_text(encoding="utf-8").splitlines()
    width = len(text[0].split(","))
    rows = [s.split(",") for s in map(str.strip, text[1:]) if s]
    casts = (int, int, int) + (float,) * (width - 3)
    return [list(map(cast, cells)) for cast, cells in zip(casts, zip(*rows))] or [
        [] for _ in range(width)
    ]


def test_metric_columns_equal_per_cell_conversion_bit_for_bit(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text(
        "round,agent_id,subpop_id,fitness,a,b\n"
        "1,0,0,0.1,1e-300,-0.0\n\n \t\n"
        "  1 , 1,0,  2.5e+10 ,nan,inf\n"
        "2,0,0,-Infinity,4.9406564584124654e-324,1.7976931348623157e308\n"
        "2,1,0,+3,00012,.5\n",
        encoding="utf-8",
    )
    got, want = read_metric_columns(path), per_cell(path)
    assert [list(map(repr, c)) for c in got] == [list(map(repr, c)) for c in want]
    assert [type(v) for c in got for v in c] == [type(v) for c in want for v in c]


def test_a_header_only_metrics_file_has_empty_columns(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("round,agent_id,subpop_id,fitness,sigma\n", encoding="utf-8")
    assert read_metric_columns(path) == [[] for _ in range(5)]
    path.write_text("", encoding="utf-8")
    assert read_metric_columns(path) == [[] for _ in range(4)]


@pytest.mark.parametrize(
    "row",
    ["1_0,0,0,1.0,0.5", f"{2**63},0,0,1.0,0.5", "#1,0,0,1.0,0.5", "1,0,0,1_0.5,0.5",
     "1.5,0,0,1.0,0.5", "1e3,0,0,1.0,0.5", "1,0,2.0,1.0,0.5"],
)
def test_refused_metric_cells_name_their_line_whatever_the_warning_filters(tmp_path, row):
    # Some numpy versions read an id such as 1.5 or 2**63 through a float and
    # only warn; with every warning ignored (DeprecationWarning is ignored
    # outside tests) the row must still be refused by file and line.
    path = tmp_path / "metrics.csv"
    path.write_text(f"round,agent_id,subpop_id,fitness,sigma\n1,0,0,1.0,0.5\n\n{row}\n",
                    encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match=rf"^{path}: line 4: "):
            read_metric_columns(path)


def test_an_id_numpy_reads_through_a_float_with_a_warning_is_refused(tmp_path, monkeypatch):
    # Models the numpy versions that parse 1.5 as an int64 through a float after
    # a DeprecationWarning, and raise ValueError only when that warning is an error.
    loadtxt = np.loadtxt

    def warning_loadtxt(rows, dtype, **kwargs):
        rows = list(rows)
        if any(row.startswith("1.5,") for row in rows):
            try:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning)
            except DeprecationWarning as exc:
                raise ValueError("could not convert string '1.5' to int64") from exc
            rows = [row.replace("1.5,", "1,", 1) for row in rows]
        return loadtxt(rows, dtype, **kwargs)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    path = tmp_path / "metrics.csv"
    path.write_text("round,agent_id,subpop_id,fitness,sigma\n1,0,0,1.0,0.5\n1.5,0,0,1.0,0.5\n",
                    encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match=rf"^{path}: line 3: "):
            read_metric_columns(path)


def per_row_text(rows) -> str:
    """The writer's bytes as its per-row formatter wrote them: the oracle for append_metrics."""
    return "".join(",".join([str(r), str(a), str(s), *map(fmt, (fitness, *hps))]) + "\n"
                   for r, a, s, fitness, hps in rows)


a_fitness = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 0.1 + 0.2])
a_value = st.floats(min_value=5e-324, allow_infinity=False) | st.sampled_from([5e-324, 1e16, 1e-7, 0.1 + 0.2])


@st.composite
def metric_appends(draw):
    """A run's rows and its appends: blocks of whole rounds, each flagged when a resume (a
    fresh RunDir and the rows read back) comes before it. A row's vector is one of a few
    tuples, by identity, or an equal copy of one."""
    subpop_size, num_subpops = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    num_agents, rounds = subpop_size * num_subpops, draw(st.integers(1, 6))
    width = draw(st.integers(1, 3))
    pool = draw(st.lists(st.tuples(*[a_value] * width), min_size=1, max_size=4))
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.booleans(), a_fitness),
                          min_size=num_agents * rounds, max_size=num_agents * rounds))
    rows = [(k // num_agents + 1, k % num_agents, k % num_agents // subpop_size, fitness,
             tuple(map(float, map(repr, pool[i]))) if copy else pool[i])
            for k, (i, copy, fitness) in enumerate(picks)]
    cuts = sorted(draw(st.sets(st.integers(1, rounds - 1), max_size=3)) if rounds > 1 else set())
    resumes = draw(st.lists(st.booleans(), min_size=len(cuts), max_size=len(cuts)))
    space = HyperparamSpace(tuple(SpaceEntry(f"h{i}", 0.1, 1.0) for i in range(width)))
    config = dataclasses.replace(small_config(), num_agents=num_agents, num_subpops=num_subpops, search_space=space)
    blocks = [(start * num_agents, end * num_agents, resume)
              for start, end, resume in zip([0, *cuts], [*cuts, rounds], [True, *resumes])]
    header = ",".join(["round", "agent_id", "subpop_id", "fitness", *(f"h{i}" for i in range(width))])
    return config, header + "\n", rows, blocks


@settings(max_examples=100, deadline=None, derandomize=True)
@given(run=metric_appends())
def test_metric_rows_are_written_as_the_per_row_formatter_wrote_them(run):
    config, header, rows, blocks = run
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = RunDir(tmp)
        run_dir.metrics.write_text(header, encoding="utf-8")
        for start, end, resume in blocks:
            if resume:
                run_dir = RunDir(tmp)
                table = read_metrics(run_dir.metrics, config, rounds=start // config.num_agents)
            with run_dir.open_logs():
                table.fitness.extend([row[3] for row in rows[start:end]])
                table.hyperparams.extend([row[4] for row in rows[start:end]])
                run_dir.append_metrics(table, start)
        assert run_dir.metrics.read_text(encoding="utf-8") == header + per_row_text(rows)
