"""Evolution events: the audit log every scheduler writes.

One event per affected agent per evolution barrier, held as a tuple of
its JSON line's eight values. The JSONL line order is the total order in
which effects were applied, which is what lineage reconstruction relies
on for same-round chains (a later sub-population may copy state that an
earlier one replaced in the same round).

read_events, the one reader of events.jsonl, decodes a block of lines per
json.loads call (see _block_columns); a line that is not an event is named by
file and line. It runs the log's one structural check (_check) on each block
in file order, refusing a log no well-formed run writes with LineageError
("<path>: line <n>: event log broken at round r: ..."); n counts blank lines.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from itertools import chain, islice, repeat
from operator import attrgetter, is_, itemgetter
from typing import Iterable, NamedTuple, Sequence, TextIO

SURVIVE = "survive"
PERTURBED_CLONE = "perturbed_clone"
MIGRATION_WEIGHTS_ONLY = "migration_weights_only"
MIGRATION_FULL = "migration_full"
ELITE_RESTORE = "elite_restore"

# Every kind but survive replaces the target's payload from some source.
EVENT_KINDS = (SURVIVE, PERTURBED_CLONE, MIGRATION_WEIGHTS_ONLY, MIGRATION_FULL, ELITE_RESTORE)


class LineageError(ValueError):
    """The event log cannot be a record of a well-formed run."""


class _EventFields(NamedTuple):
    round: int
    subpop_id: int
    target_agent_id: int
    kind: str
    source_agent_id: int | None
    source_round: int | None
    hyperparams_after: tuple[float, ...]
    fitness_snapshot: float


class EvolutionEvent(_EventFields):
    """What happened to one agent at one evolution barrier, as a tuple in _FIELDS order.

    `source_round` is only set for elite restores, where the payload comes
    from a snapshot taken at an earlier round; for clones and migrations
    the source state is the live state at `round`. The constructor refuses an unknown kind,
    a survive event with a source and any other kind without one. It guards events built in
    Python, which no reader sees; _make and _replace skip it, and the package calls neither.
    """

    __slots__ = ()

    def __new__(cls, round, subpop_id, target_agent_id, kind, source_agent_id, source_round,
                hyperparams_after, fitness_snapshot):
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        if kind == SURVIVE and source_agent_id is not None:
            raise ValueError("survive events carry no source")
        if kind != SURVIVE and source_agent_id is None:
            raise ValueError(f"{kind} events require a source agent")
        return tuple.__new__(cls, (round, subpop_id, target_agent_id, kind, source_agent_id,
                                   source_round, hyperparams_after, fitness_snapshot))

    def to_json_line(self) -> str:
        """json.dumps(dict(zip(_FIELDS, values)), separators=(",", ":")), from one template:
        ids by repr (None as null), a known kind needs no escape, floats by _json_floats."""
        rnd, sub, target, kind, src, src_round, hps, fitness = self
        return (f'{{"round":{rnd!r},"subpop_id":{sub!r},"target_agent_id":{target!r},"kind":"{kind}",'
                f'"source_agent_id":{"null" if src is None else repr(src)},'
                f'"source_round":{"null" if src_round is None else repr(src_round)},'
                f'"hyperparams_after":[{_json_floats(hps)}],"fitness_snapshot":{_json_floats((fitness,))}}}')


def event_from_json_line(line: str) -> EvolutionEvent:
    """The event of one line, refused unless it is what to_json_line writes."""
    return EvolutionEvent(*(col[0] for col in _columns([json.loads(line)])))


_FIELDS = EvolutionEvent._fields  # the JSON keys, in order
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # float repr -> json
_EVENT_BLOCK = 1000  # lines decoded at once: bounds the records held


def _json_floats(values) -> str:
    """Floats joined by commas as json writes them: float.__repr__, or NaN/Infinity/-Infinity."""
    text = ",".join(map(float.__repr__, values))
    return text if "n" not in text else ",".join(_NON_FINITE.get(v, v) for v in text.split(","))


def _types(*columns) -> set:
    return set(map(type, chain.from_iterable(columns)))


def _columns(recs: list) -> list[list]:
    """Decoded records as eight event columns in _FIELDS order.

    A record is accepted only as to_json_line writes it: an object with
    exactly the eight keys (KeyError names a missing one), a known kind,
    int ids, int or null sources, float numbers, and a source exactly
    when the kind is not survive; anything else raises ValueError.
    """
    if not (all(map(isinstance, recs, repeat(dict))) and set(map(len, recs)) <= {len(_FIELDS)}):
        raise ValueError(f"want an object with exactly the keys {', '.join(_FIELDS)}")
    cols = [list(map(itemgetter(k), recs)) for k in _FIELDS]  # KeyError unless exact
    rnd, sub, tgt, kinds, src, src_round, hps, fit = cols
    if not (_types(rnd, sub, tgt) <= {int} and _types(src, src_round) <= {int, type(None)}
            and _types(hps) <= {list} and _types(fit, *hps) <= {float}):
        raise ValueError("want integer ids (sources may be null) and float numbers")
    if not (_types(kinds) <= {str} and set(kinds) <= set(EVENT_KINDS)):
        raise ValueError(f"kind must be one of {', '.join(EVENT_KINDS)}")
    if list(map(SURVIVE.__eq__, kinds)) != list(map(is_, src, repeat(None))):
        raise ValueError("survive events carry no source; every other kind names one")
    cols[6] = list(map(tuple, hps))
    return cols


def _block_columns(path, lines: list[str], first: int) -> list[list]:
    """A block of lines as eight event columns in _FIELDS order.

    One json.loads decodes the joined block. If every line is braced, as
    many records come back as lines, and _columns accepts them, no record
    holds a brace (the only string is a known kind), so each line holds one
    record. Other blocks go line by line, naming the first refused line.
    """
    rows = [s for s in map(str.strip, lines) if s]
    try:
        if all(map(str.startswith, rows, repeat("{"))) and all(map(str.endswith, rows, repeat("}"))):
            recs = json.loads("[" + ",".join(rows) + "]")
            if len(recs) == len(rows):
                return _columns(recs)
    except (KeyError, ValueError):  # not a JSON array of such objects
        pass
    events = []
    for line_no, line in enumerate(lines, first):
        try:
            if line.strip():
                events.append(event_from_json_line(line.strip()))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path}: line {line_no}: {type(exc).__name__}: {exc}") from None
    return [list(map(attrgetter(k), events)) for k in _FIELDS]


def _check(cols: list[list], carry: list, num_agents, num_hyperparams, where=lambda i: "") -> None:
    """Raise LineageError(where(i) + "event log broken at round r: ...") at the first event i
    of cols no well-formed run writes; a vector's values must be positive finite reals.
    carry, [last round, targets rewritten in it], is updated for the log's next block."""
    last, rewritten = carry
    hi = math.inf if num_agents is None else num_agents
    for i, (r, target, kind, source, source_round, hps, fitness) in enumerate(zip(cols[0], *cols[2:])):
        if r > last:
            last, rewritten = r, set()
        changed = source is not None  # every kind but survive
        if r < 1:
            why = "rounds start at 1"
        elif r < last:
            why = f"rounds decrease after {last}"
        elif not 0 <= target < hi:
            why = f"agent id {target} out of range"
        elif changed and not 0 <= source < hi:
            why = f"agent id {source} out of range"
        elif changed and kind != ELITE_RESTORE and source == target:
            why = f"agent {target} clones itself"
        elif changed and kind != ELITE_RESTORE and source_round is not None:
            why = f"{kind} carries a source round"
        elif kind == ELITE_RESTORE and (source_round is None or not 1 <= source_round <= r):
            why = f"elite restore from round {source_round}"
        elif changed and target in rewritten:
            why = f"agent {target} rewritten twice"
        elif not math.isfinite(fitness):
            why = "non-finite fitness snapshot"
        elif num_hyperparams is not None and len(hps) != num_hyperparams:
            why = f"hyperparams_after holds {len(hps)} values, not the run's {num_hyperparams}"
        elif bad := [v for v in hps if not 0.0 < v < math.inf]:
            why = f"hyperparams_after value {bad[0]} is not a positive real"
        else:
            if changed:
                rewritten.add(target)
            continue
        raise LineageError(f"{where(i)}event log broken at round {r}: {why}")
    carry[:] = last, rewritten


def validate_event_log(events: Sequence[EvolutionEvent], num_agents: int | None = None) -> None:
    """read_events' check over events held in memory; the first broken one is named by round."""
    _check([list(map(attrgetter(k), events)) for k in _FIELDS], [0, set()], num_agents, None)


def text(path, lines: Sequence[str] | None = None):
    """path opened for reading, or the lines already read from it."""
    return open(path, "r", encoding="utf-8") if lines is None else nullcontext(iter(lines))


def _event_blocks(path, lines=None, num_agents=None, num_hyperparams=None):
    """Each block of path's events as eight columns, once _check passes it."""
    carry = [0, set()]
    with text(path, lines) as fh:
        first = 1
        while block := list(islice(fh, _EVENT_BLOCK)):
            cols = _block_columns(path, block, first)
            _check(cols, carry, num_agents, num_hyperparams,
                   lambda i: f"{path}: line {[n for n, s in enumerate(block, first) if s.strip()][i]}: ")
            yield cols
            first += len(block)


def write_events(log: TextIO, events: Iterable[EvolutionEvent]) -> None:
    """Append events to the open log, one JSON line each, in one write, and flush it."""
    log.write("".join([ev.to_json_line() + "\n" for ev in events]))
    log.flush()


def read_events(path, lines: Sequence[str] | None = None, num_agents: int | None = None,
                num_hyperparams: int | None = None) -> list[EvolutionEvent]:
    """Every event of path once _check passes them (ids against num_agents, vector lengths
    against num_hyperparams, when given); lines, when given, are its text already read."""
    return [ev for cols in _event_blocks(path, lines, num_agents, num_hyperparams)
            for ev in map(EvolutionEvent, *cols)]
