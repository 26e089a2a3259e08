"""Evolution events: the audit log every scheduler writes.

One event per affected agent per evolution barrier. The JSONL line order
is the total order in which effects were applied, which is what lineage
reconstruction relies on for same-round chains (a later sub-population
may copy state that an earlier one replaced in the same round).

Readers decode events.jsonl a block of lines per json.loads call (see
_block_columns); a line that is not an event is named by file and line.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from operator import attrgetter, is_, itemgetter
from typing import Iterable, Sequence

SURVIVE = "survive"
PERTURBED_CLONE = "perturbed_clone"
MIGRATION_WEIGHTS_ONLY = "migration_weights_only"
MIGRATION_FULL = "migration_full"
ELITE_RESTORE = "elite_restore"

# Every kind but survive replaces the target's payload from some source.
EVENT_KINDS = (SURVIVE, PERTURBED_CLONE, MIGRATION_WEIGHTS_ONLY, MIGRATION_FULL, ELITE_RESTORE)


@dataclass(frozen=True)
class EvolutionEvent:
    """What happened to one agent at one evolution barrier.

    `source_round` is only set for elite restores, where the payload comes
    from a snapshot taken at an earlier round; for clones and migrations
    the source state is the live state at `round`.
    """

    round: int
    subpop_id: int
    target_agent_id: int
    kind: str
    source_agent_id: int | None
    source_round: int | None
    hyperparams_after: tuple[float, ...]
    fitness_snapshot: float

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.kind == SURVIVE and self.source_agent_id is not None:
            raise ValueError("survive events carry no source")
        if self.kind != SURVIVE and self.source_agent_id is None:
            raise ValueError(f"{self.kind} events require a source agent")

    def to_json_line(self) -> str:
        """json.dumps(dict(zip(_FIELDS, values)), separators=(",", ":")), from one template:
        ids by repr (None as null), a known kind needs no escape, floats by _json_floats."""
        src, src_round = self.source_agent_id, self.source_round
        return (f'{{"round":{self.round!r},"subpop_id":{self.subpop_id!r},'
                f'"target_agent_id":{self.target_agent_id!r},"kind":"{self.kind}",'
                f'"source_agent_id":{"null" if src is None else repr(src)},'
                f'"source_round":{"null" if src_round is None else repr(src_round)},'
                f'"hyperparams_after":[{_json_floats(self.hyperparams_after)}],'
                f'"fitness_snapshot":{_json_floats((self.fitness_snapshot,))}}}')


def event_from_json_line(line: str) -> EvolutionEvent:
    """The event of one line, refused unless it is what to_json_line writes."""
    return EvolutionEvent(*(col[0] for col in _columns([json.loads(line)])))


_FIELDS = dict.fromkeys(EvolutionEvent.__dataclass_fields__).keys()  # the JSON keys, in order
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


def text(path, lines: Sequence[str] | None = None):
    """path opened for reading, or the lines already read from it."""
    return open(path, "r", encoding="utf-8") if lines is None else nullcontext(iter(lines))


def _event_blocks(path, lines: Sequence[str] | None = None):
    with text(path, lines) as fh:
        first = 1
        while block := list(islice(fh, _EVENT_BLOCK)):
            yield _block_columns(path, block, first)
            first += len(block)


def write_events(path, events: Iterable[EvolutionEvent]) -> None:
    """Append events to path, one JSON line each, in one write."""
    lines = "".join([ev.to_json_line() + "\n" for ev in events])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(lines)


def read_event_columns(path):
    """events.jsonl as the round, target id and fitness of every event, plus
    {position: event} for the payload-changing ones (no survive is built)."""
    rounds, targets, fitness, changed = [], [], [], {}
    for cols in _event_blocks(path):
        mask = list(map(SURVIVE.__ne__, cols[3]))
        events = map(EvolutionEvent, *(compress(col, mask) for col in cols))
        changed.update(zip(compress(count(len(rounds)), mask), events))
        rounds += cols[0]
        targets += cols[2]
        fitness += cols[7]
    return rounds, targets, fitness, changed


def read_events(path, lines: Sequence[str] | None = None) -> list[EvolutionEvent]:
    """Every event of path; lines, when given, are its text already read."""
    return [ev for cols in _event_blocks(path, lines) for ev in map(EvolutionEvent, *cols)]
