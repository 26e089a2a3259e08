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

EVENT_KINDS = (SURVIVE, PERTURBED_CLONE, MIGRATION_WEIGHTS_ONLY, MIGRATION_FULL, ELITE_RESTORE)

# Kinds that replace the target's payload from some source.
SOURCED_KINDS = (PERTURBED_CLONE, MIGRATION_WEIGHTS_ONLY, MIGRATION_FULL, ELITE_RESTORE)


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
        if self.kind in SOURCED_KINDS and self.source_agent_id is None:
            raise ValueError(f"{self.kind} events require a source agent")

    def to_json_line(self) -> str:
        return json.dumps(dict(zip(_FIELDS, _field_values(self))), separators=(",", ":"))


def event_from_json_line(line: str) -> EvolutionEvent:
    rec = json.loads(line)
    return EvolutionEvent(
        round=int(rec["round"]),
        subpop_id=int(rec["subpop_id"]),
        target_agent_id=int(rec["target_agent_id"]),
        kind=rec["kind"],
        source_agent_id=rec["source_agent_id"],
        source_round=rec["source_round"],
        hyperparams_after=tuple(float(v) for v in rec["hyperparams_after"]),
        fitness_snapshot=float(rec["fitness_snapshot"]),
    )


_FIELDS = dict.fromkeys(EvolutionEvent.__dataclass_fields__).keys()  # the JSON keys, in order
_field_values = attrgetter(*_FIELDS)  # not vars(): that would keep a dict on every event
_EVENT_BLOCK = 1000  # lines decoded at once: bounds the records held


def _types(*columns) -> set:
    return set(map(type, chain.from_iterable(columns)))


def _block_columns(path, lines: list[str], first: int) -> list[list]:
    """A block of lines as eight event columns in _FIELDS order.

    One json.loads decodes the joined block. If every line is one braced
    object and every record has exactly the eight keys, a known kind, int or
    null ids and float numbers, no record holds a brace, so each line holds
    one record, as line-by-line decoding finds. Other blocks go line by line.
    """
    rows = [s for s in map(str.strip, lines) if s]
    try:
        if all(map(str.startswith, rows, repeat("{"))) and all(map(str.endswith, rows, repeat("}"))):
            recs = json.loads("[" + ",".join(rows) + "]")
            if len(recs) == len(rows) and set(map(len, recs)) <= {len(_FIELDS)}:
                cols = [list(map(itemgetter(k), recs)) for k in _FIELDS]  # KeyError unless exact
                rnd, sub, tgt, kinds, src, src_round, hps, fit = cols
                if (_types(rnd, sub, tgt) <= {int} and _types(src, src_round) <= {int, type(None)}
                        and set(kinds) <= set(EVENT_KINDS) and _types(hps) <= {list}
                        and _types(fit, *hps) <= {float}  # survive <=> no source:
                        and list(map(SURVIVE.__eq__, kinds)) == list(map(is_, src, repeat(None)))):
                    cols[6] = list(map(tuple, hps))
                    return cols
    except (KeyError, TypeError, ValueError):  # not a JSON array of such objects
        pass
    events = []
    for line_no, line in enumerate(lines, first):
        try:
            if line.strip():
                events.append(event_from_json_line(line.strip()))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: line {line_no}: {type(exc).__name__}: {exc}") from None
    return [list(map(attrgetter(k), events)) for k in _FIELDS]


def _text(path, lines: Sequence[str] | None = None):
    """path opened for reading, or the lines already read from it."""
    return open(path, "r", encoding="utf-8") if lines is None else nullcontext(iter(lines))


def _event_blocks(path, lines: Sequence[str] | None = None):
    with _text(path, lines) as fh:
        first = 1
        while block := list(islice(fh, _EVENT_BLOCK)):
            yield _block_columns(path, block, first)
            first += len(block)


def write_events(path, events: Iterable[EvolutionEvent], append: bool = True) -> None:
    mode = "a" if append else "w"
    with open(path, mode, encoding="utf-8") as fh:
        for ev in events:
            fh.write(ev.to_json_line())
            fh.write("\n")


def _read_event_columns(path):
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
