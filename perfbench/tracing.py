"""Outside-in tracing of popsched: wrappers at the names the engine looks up.

Nothing here edits the engine's source. `Tracer.install` replaces module
attributes and trainable methods with wrappers; `Tracer.uninstall` puts
the originals back. Every wrapped call records a span (layer name,
start, end, parent span) into in-memory arrays, and count hooks add
exact counts read from a call's arguments or result. `Tracer.drain`
turns the spans of one pass into per-layer calls, total time and self
time, then empties the buffers so memory stays bounded by one pass.

Only the calling thread of the benchmark process is traced. Forked pool
workers inherit the wrappers, but their spans stay in the child and are
lost; the pool layer is therefore reported from parent spans and
RUSAGE_CHILDREN.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

_MISSING = object()


def _count_migrations(counters, args, kwargs, result):
    counters["mfpbt.migrations"] += len(result)


def _count_elites(counters, args, kwargs, result):
    archive, population, round_no = args[:3]
    counters["baselines.elite_copies"] += len(population.agents)
    counters["baselines.elite_admitted"] += sum(1 for e in archive.entries if e.round == round_no)


def _count_segments(counters, args, kwargs, result):
    counters["lineage.segments"] += len(result.segments)


def trace_targets():
    """(owner, attribute, span name, count hook) for every wrapped name."""
    import popsched
    from popsched import baselines, cli, lineage, mfpbt, pbt, runner, trainables

    targets = []
    for cls in trainables.TRAINABLES.values():
        targets += [
            (cls, "train", "trainables.train", None),
            (cls, "evaluate", "trainables.evaluate", None),
            (cls, "import_payload", "trainables.import_payload", None),
            (cls, "export_payload", "trainables.export_payload", None),
        ]
    for mod in (runner, lineage):
        targets.append((mod, "build_trainable", "trainables.build_trainable", None))
    for mod in (pbt, mfpbt, baselines, lineage):
        targets.append((mod, "transfer_weights", "trainables.transfer_weights", None))
    for mod in (pbt, mfpbt, baselines):
        targets.append((mod, "rank_descending", "core.rank", None))
    for mod in (runner, mfpbt):
        targets.append((mod, "pbt_evolution_step", "pbt.evolution_step", None))
    targets += [
        (runner, "mfpbt_round", "mfpbt.round", None),
        (mfpbt, "migrate", "mfpbt.migrate", _count_migrations),
        (runner, "update_elites", "baselines.elite_update", _count_elites),
        (runner, "backtrack", "baselines.backtrack", None),
        (runner, "write_events", "events.write", None),
        (runner, "read_events", "events.read", None),
        (lineage, "read_events", "events.read", None),
        (popsched, "run_experiment", "runner.run_experiment", None),
        (cli, "run_experiment", "runner.run_experiment", None),
        (runner, "read_metrics", "runner.read_metrics", None),
        (lineage, "read_metrics", "runner.read_metrics", None),
        (cli, "read_metrics", "runner.read_metrics", None),
        (lineage, "load_run_config", "runner.load_run_config", None),
        (cli, "load_run_config", "runner.load_run_config", None),
        (lineage, "validate_event_log", "lineage.validate", None),
        (lineage, "reconstruct_schedule", "lineage.reconstruct", None),
        (lineage, "replay_schedule", "lineage.replay", None),
        (cli, "replay_run", "lineage.replay_run", _count_segments),
        (cli, "aggregate_curve", "reporting.aggregate_curve", None),
        (cli, "compare_final", "reporting.compare_final", None),
        (cli, "best_fitness_by_round", "reporting.best_fitness_by_round", None),
        (cli, "main", "cli.main", None),
    ]
    return targets


class Tracer:
    """Span recorder for the benchmark's single client thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name_ids = array("q")
        self._parents = array("q")
        self._starts = array("d")
        self._ends = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}
        self._installed: list[tuple[object, str, object]] = []
        self.unresolved: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        name_ids, parents, starts, ends = self._name_ids, self._parents, self._starts, self._ends
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        self.unresolved = []
        for owner, attr, name, hook in trace_targets():
            own = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) else _MISSING
            fn = getattr(owner, attr, _MISSING)
            if fn is _MISSING:
                self.unresolved.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            setattr(owner, attr, self.wrap(name, fn, hook))
            self._installed.append((owner, attr, fn if not isinstance(owner, type) else own))
        for key in ("mfpbt.migrations", "baselines.elite_copies",
                    "baselines.elite_admitted", "lineage.segments"):
            self.counters.setdefault(key, 0)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            if original is _MISSING:
                delattr(owner, attr)  # the method was inherited before wrapping
            else:
                setattr(owner, attr, original)
        self._installed = []

    def drain(self) -> tuple[dict[str, tuple[int, float, float]], dict[str, int]]:
        """Per-layer (calls, total_s, self_s) and counts for the spans so far.

        Self time is a span's duration minus the time its child spans
        cover; spans of one thread nest, so the children's durations add.
        """
        if self._stack:
            raise RuntimeError("drain called inside an open span")
        ids = np.array(self._name_ids, dtype=np.int64)
        parents = np.array(self._parents, dtype=np.int64)
        dur = np.array(self._ends, dtype=float) - np.array(self._starts, dtype=float)
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        self_t = dur - child
        layers = {}
        for nid, name in enumerate(self.names):
            sel = ids == nid
            calls = int(sel.sum())
            layers[name] = (calls, float(dur[sel].sum()), float(self_t[sel].sum()))
        counts = dict(self.counters)
        for buf in (self._name_ids, self._parents, self._starts, self._ends):
            del buf[:]
        for key in self.counters:
            self.counters[key] = 0
        return layers, counts
