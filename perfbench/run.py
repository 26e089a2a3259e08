"""popsched benchmark: one command for four workloads, untraced or traced.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 36 --trace 0

Run from the root of a checkout. The engine is imported from the
checkout's `src/`; nothing is installed. One client issues operations
back to back (a closed loop); only `workers2` makes popsched start
worker processes, two of them. Between passes the benchmark times
`import popsched` in a fresh interpreter, one at a time.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates
untraced and traced passes and reports the per-layer metrics: self time
and exact counts from wrappers around popsched's public functions (see
tracing.py), plus the tracing overhead as traced minus untraced pass
time. Every pass is checked for correctness; any failed operation makes
the command exit 1 after printing its result. Human-readable lines come
first; the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Exit codes: 0 correct, 1 an operation failed, 2 usage error or no engine
sources in this checkout (then no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"
GOLDEN = BENCH_DIR / "golden.json"
DEFAULT_SEED = 0

# Setup is repeated for its median, up to SETUP_REPS times while the
# repetitions so far took less than SETUP_BUDGET_S.
SETUP_REPS = 3
SETUP_BUDGET_S = 4.0
# Times `import popsched` in a fresh interpreter, once after every pass,
# for the median import time in setup_s.
IMPORT_CHILD = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import popsched; "
                "print(time.perf_counter() - start)")

# The gated metrics. The medians and tails of single operations print
# as the workload's own figures instead (see end_to_end).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("agent_steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

MARSHAL = (
    "trainables.build_trainable",
    "trainables.import_payload",
    "trainables.export_payload",
    "trainables.transfer_weights",
)

# Per-layer metric -> (unit, how it is read from one traced pass). "calls"
# and "self" read span names; "count" reads a count hook or the disk.
PER_LAYER = {
    "trainables.train.calls": ("count", ("calls", "trainables.train")),
    "trainables.train.busy_s": ("s", ("self", "trainables.train")),
    "trainables.evaluate.busy_s": ("s", ("self", "trainables.evaluate")),
    "trainables.marshal.calls": ("count", ("calls", *MARSHAL)),
    "trainables.marshal.busy_s": ("s", ("self", *MARSHAL)),
    "trainables.marshal_per_train": ("ratio", None),
    "core.rank.calls": ("count", ("calls", "core.rank")),
    "pbt.evolution_step.calls": ("count", ("calls", "pbt.evolution_step")),
    "pbt.evolution_step.busy_s": ("s", ("self", "pbt.evolution_step")),
    "mfpbt.round.busy_s": ("s", ("self", "mfpbt.round")),
    "mfpbt.migrate.busy_s": ("s", ("self", "mfpbt.migrate")),
    "mfpbt.migrations": ("count", ("count", "mfpbt.migrations")),
    "baselines.elite_update.busy_s": ("s", ("self", "baselines.elite_update")),
    "baselines.elite_copies": ("count", ("count", "baselines.elite_copies")),
    "baselines.elite_admit_ratio": ("ratio", None),
    "baselines.backtrack.busy_s": ("s", ("self", "baselines.backtrack")),
    "events.write.calls": ("count", ("calls", "events.write")),
    "events.write.busy_s": ("s", ("self", "events.write")),
    "events.bytes": ("B", ("count", "disk.events")),
    "events.read.busy_s": ("s", ("self", "events.read")),
    "runner.self_s": ("s", ("self", "runner.run_experiment")),
    "runner.metrics.bytes": ("B", ("count", "disk.metrics")),
    "runner.checkpoint.files": ("count", ("count", "disk.checkpoint_files")),
    "runner.checkpoint.bytes": ("B", ("count", "disk.checkpoints")),
    "runner.checkpoint.overhead_s": ("s", None),
    "runner.disk.overhead_s": ("s", None),
    "runner.read_metrics.busy_s": ("s", ("self", "runner.read_metrics")),
    "runner.load_run_config.busy_s": ("s", ("self", "runner.load_run_config")),
    "runner.pool.overhead_s": ("s", None),
    "runner.pool.parent_cpu_s": ("s", None),
    "runner.pool.child_cpu_s": ("s", None),
    "lineage.validate.busy_s": ("s", ("self", "lineage.validate")),
    "lineage.reconstruct.busy_s": ("s", ("self", "lineage.reconstruct")),
    "lineage.replay.busy_s": ("s", ("self", "lineage.replay", "lineage.replay_run")),
    "lineage.segments": ("count", ("count", "lineage.segments")),
    "reporting.aggregate_curve.busy_s": ("s", ("self", "reporting.aggregate_curve")),
    "reporting.compare_final.busy_s": ("s", ("self", "reporting.compare_final")),
    "reporting.best_fitness_by_round.busy_s": ("s", ("self", "reporting.best_fitness_by_round")),
    "cli.self_s": ("s", ("self", "cli.main")),
    "disk_bytes": ("B", ("count", "disk.total")),
    "machine.probe_s": ("s", None),
    "trace.wall_s": ("s", None),
    "trace.overhead_s": ("s", None),
    "trace.missing_layers": ("count", None),
}

# Span names each workload must see calls for; a layer without calls
# there is reported as missing (for example, after a refactor binds a
# function at import time, out of the wrapper's reach). Train, evaluate
# and payload import/export run in forked workers under workers2.
EXPECTED_SPANS = {
    "sweep": ("trainables.train", "trainables.evaluate", "trainables.build_trainable",
              "trainables.import_payload", "trainables.export_payload",
              "trainables.transfer_weights", "core.rank", "pbt.evolution_step",
              "mfpbt.round", "mfpbt.migrate", "runner.run_experiment"),
    "persist": ("trainables.train", "trainables.evaluate", "trainables.build_trainable",
                "trainables.import_payload", "trainables.export_payload",
                "trainables.transfer_weights", "core.rank", "pbt.evolution_step",
                "baselines.elite_update", "baselines.backtrack", "events.write",
                "events.read", "runner.run_experiment", "runner.read_metrics", "cli.main"),
    "analyze": ("trainables.train", "trainables.evaluate", "trainables.build_trainable",
                "trainables.import_payload", "trainables.export_payload",
                "trainables.transfer_weights", "events.read", "runner.read_metrics",
                "runner.load_run_config", "lineage.validate", "lineage.reconstruct",
                "lineage.replay", "lineage.replay_run", "reporting.aggregate_curve",
                "reporting.compare_final", "reporting.best_fitness_by_round", "cli.main"),
    "workers2": ("trainables.build_trainable", "trainables.transfer_weights", "core.rank",
                 "pbt.evolution_step", "mfpbt.round", "mfpbt.migrate", "events.write",
                 "runner.run_experiment", "cli.main"),
}


class UsageError(Exception):
    """Bad arguments or a checkout without the engine's sources."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description="popsched benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(EXPECTED_SPANS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true",
                        help="flip one byte of the first pass's events.jsonl before its check")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_engine() -> float:
    """Import popsched from this checkout's src/; returns the import seconds."""
    src = ROOT / "src"
    if not (src / "popsched" / "__init__.py").is_file():
        raise UsageError(f"no engine sources: {src / 'popsched'} is missing")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import popsched

    seconds = time.perf_counter() - start
    if not Path(popsched.__file__).resolve().is_relative_to(src.resolve()):
        raise UsageError(f"popsched was imported from {popsched.__file__}, not from {src}")
    return seconds


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import popsched from this checkout."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_CHILD, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def probe() -> float:
    """A fixed pure-Python loop; its time tells a slow machine from a regression."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    Below 21 samples that percentile is under the median; the maximum is
    reported instead, as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def disk_usage(pass_dir: Path) -> dict[str, int]:
    """Bytes a pass left in its directory, result.json excluded (it holds wall clock)."""
    usage = dict.fromkeys(("disk.total", "disk.events", "disk.metrics",
                           "disk.checkpoints", "disk.checkpoint_files"), 0)
    for path in pass_dir.rglob("*"):
        if not path.is_file() or path.name == "result.json":
            continue
        size = path.stat().st_size
        usage["disk.total"] += size
        if path.name == "events.jsonl":
            usage["disk.events"] += size
        elif path.name == "metrics.csv":
            usage["disk.metrics"] += size
        elif path.parent.name == "checkpoints":
            usage["disk.checkpoints"] += size
            usage["disk.checkpoint_files"] += 1
    return usage


def flip_event_byte(pass_dir: Path) -> None:
    """Flip the low bit of one digit in the middle of an events.jsonl."""
    path = next(pass_dir.rglob("events.jsonl"))
    data = bytearray(path.read_bytes())
    idx = next(i for i in range(len(data) // 2, len(data)) if chr(data[i]).isdigit())
    data[idx] ^= 1
    path.write_bytes(bytes(data))


def run_passes(args, workload, client, tracer, work: Path) -> list[dict]:
    """Passes back to back until --seconds is used up; at least one (two when traced).

    Under --trace 1 untraced and traced passes alternate; the untraced
    ones also make the workload's comparison calls.
    """
    passes: list[dict] = []
    cycle_s: dict[bool, float] = {}
    min_passes = 2 if args.trace else 1
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        cycle_start = time.perf_counter()
        client.stage = f"pass {len(passes)}"
        pass_dir = work / f"pass{len(passes)}"
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir(parents=True)
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = workload.run_pass(pass_dir)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        record = {
            "traced": traced,
            "wall": wall,
            "ops": out.ops,
            "agent_steps": out.agent_steps,
        }
        if args.inject_fault and not passes:
            flip_event_byte(pass_dir)
        record["disk"] = disk_usage(pass_dir)
        workload.check(pass_dir, out)
        if traced:
            record["layers"], record["counts"] = tracer.drain()
        elif args.trace:
            record["extras"] = workload.extras(pass_dir / "extras")
        shutil.rmtree(pass_dir)
        record["probe"] = probe()
        record["import"] = import_seconds()
        passes.append(record)
        cycle_s[traced] = time.perf_counter() - cycle_start
        if client.failures:
            break
        next_traced = bool(args.trace) and len(passes) % 2 == 1
        predicted = cycle_s.get(next_traced, cycle_s[traced])
        if len(passes) >= min_passes and time.perf_counter() - start + predicted > args.seconds:
            break
    return passes


def check_golden(args, workload, client) -> None:
    """On the default seed, the first pass's digests must equal the frozen ones."""
    if args.seed != DEFAULT_SEED:
        return
    client.stage = "golden"
    frozen = json.loads(GOLDEN.read_text()).get(workload.name, {})
    for key, digest in workload.digests.items():
        if frozen.get(key) != digest:
            label, _, name = key.partition(" | ")
            client.fail(label, f"{name} digest {digest} differs from the frozen {frozen.get(key)}")


def median_of(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_operation(passes: list[dict], statistic) -> float:
    """One pass's time: the sum over its operations of `statistic` of each
    one's times across passes.

    A pass issues the same operations in the same order every time, so
    the statistic is taken per operation.
    """
    return sum(statistic(times) for times in zip(*(
        [seconds for _, seconds in p["ops"]] for p in passes)))


def end_to_end(workload, passes, setup_s) -> tuple[dict, list[str], list[tuple]]:
    """The gated metrics, notes, and the workload's own (name, value, unit) figures."""
    untraced = [p for p in passes if not p["traced"]]
    # A shared host switches, within seconds, between a faster state and
    # a steadier slower one (other tenants busy on the same cores). Nearly
    # every run of a few tens of seconds meets the slower state, so each
    # operation's slowest time varies less from run to run than its
    # median, which jumps between the two states with their mix.
    wall_s = per_operation(untraced, max)
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "agent_steps_per_s": untraced[0]["agent_steps"] / wall_s,
        # getrusage gives the largest single child; each worker may reach it.
        "peak_rss_mb": (own_kb + workload.workers * child_kb) / 1024.0,
    }
    ops = [s for p in untraced for kind, s in p["ops"] if kind == workload.main_op]
    tail_s, tail_pct = tail(ops)
    own = [("wall_p50_s", per_operation(untraced, statistics.median), "s"),
           ("run_p50_s", statistics.median(ops), "s"),
           ("run_tail_s", tail_s, "s")]
    notes = ["wall_s sums each operation's slowest time over the run's passes; "
             "wall_p50_s sums their medians",
             f"run_p50_s and run_tail_s time '{workload.main_op}' operations; "
             f"run_tail_s is p{tail_pct:.1f} of {len(ops)}",
             "pass walls (s): " + " ".join(f"{p['wall']:.3f}" for p in untraced)]
    # Per kind of operation: the median alone when a pass makes one such
    # call (crash_s, resume_s, report_s), else the median and the tail.
    # Seed-runs are already run_p50_s and run_tail_s.
    kinds = [kind for kind, _ in untraced[0]["ops"]]
    for kind in dict.fromkeys(kinds):
        if kind == "run":
            continue
        samples = [s for p in untraced for k, s in p["ops"] if k == kind]
        if kinds.count(kind) == 1:
            own.append((f"{kind}_s", statistics.median(samples), "s"))
            continue
        value, pct = tail(samples)
        own.append((f"{kind}_p50_s", statistics.median(samples), "s"))
        own.append((f"{kind}_tail_s", value, "s"))
        notes.append(f"{kind}_tail_s is p{pct:.1f} of {len(samples)}")
    own.append(("disk_bytes", untraced[0]["disk"]["disk.total"], "B"))
    return metrics, notes, own


def layer_value(how, layers, counts):
    kind, *names = how
    if kind == "count":
        return counts.get(names[0], 0)
    index = 0 if kind == "calls" else 2
    return sum(layers.get(n, (0, 0.0, 0.0))[index] for n in names)


def per_layer(args, workload, passes, client) -> tuple[dict, list[str]]:
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    samples: dict[str, list] = {}
    for p in traced:
        merged = {**p["counts"], **p["disk"]}
        for name, (_, how) in PER_LAYER.items():
            if how is not None:
                samples.setdefault(name, []).append(layer_value(how, p["layers"], merged))
    metrics = {}
    for name, values in samples.items():
        exact = PER_LAYER[name][0] in ("count", "B")
        if exact and len(set(values)) != 1:
            client.fail("trace", f"{name} differs between passes: {values}")
        metrics[name] = values[0] if exact else statistics.median(values)
    train = metrics["trainables.train.calls"]
    metrics["trainables.marshal_per_train"] = metrics["trainables.marshal.calls"] / train if train else 0.0
    copies = metrics["baselines.elite_copies"]
    admitted = traced[0]["counts"].get("baselines.elite_admitted", 0)
    metrics["baselines.elite_admit_ratio"] = admitted / copies if copies else 0.0

    notes = []
    extras = [p["extras"] for p in untraced if p.get("extras")]
    crash = [s for p in untraced for kind, s in p["ops"] if kind == "crash"]
    if extras and crash:
        no_ckpt = median_of([e["crash_no_checkpoint_s"] for e in extras])
        memory = median_of([e["crash_in_memory_s"] for e in extras])
        metrics["runner.checkpoint.overhead_s"] = statistics.median(crash) - no_ckpt
        metrics["runner.disk.overhead_s"] = no_ckpt - memory
    else:
        metrics["runner.checkpoint.overhead_s"] = metrics["runner.disk.overhead_s"] = 0.0
        notes.append("runner.checkpoint.overhead_s and runner.disk.overhead_s: not measured here")
    pool = [e for e in extras if "pool_workers2_s" in e]
    if pool:
        metrics["runner.pool.overhead_s"] = (median_of([e["pool_workers2_s"] for e in pool])
                                             - median_of([e["pool_inline_s"] for e in pool]))
        metrics["runner.pool.parent_cpu_s"] = median_of([e["pool_parent_cpu_s"] for e in pool])
        metrics["runner.pool.child_cpu_s"] = median_of([e["pool_child_cpu_s"] for e in pool])
    else:
        for name in ("overhead_s", "parent_cpu_s", "child_cpu_s"):
            metrics[f"runner.pool.{name}"] = 0.0
        notes.append("runner.pool.*: not measured here")
    metrics["machine.probe_s"] = median_of([p["probe"] for p in passes])
    traced_wall = median_of([p["wall"] for p in traced])
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - median_of([p["wall"] for p in untraced])
    missing = [n for n in EXPECTED_SPANS[args.workload]
               if all(p["layers"].get(n, (0,))[0] == 0 for p in traced)]
    metrics["trace.missing_layers"] = len(missing)
    if missing:
        notes.append("missing layers (no calls seen): " + ", ".join(missing))
    return metrics, notes


def measure(args) -> int:
    import_s = import_engine()
    sys.path.insert(0, str(BENCH_DIR))
    import tracing
    import workloads

    client = workloads.Client()
    workload = workloads.WORKLOADS[args.workload](args.seed, client)
    if args.inject_fault and not workload.has_event_files:
        raise UsageError(f"--inject-fault needs a workload that writes events.jsonl, not {args.workload}")
    tracer = tracing.Tracer() if args.trace else None
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times = []
        while True:
            setup_dir = work / "setup"
            shutil.rmtree(setup_dir, ignore_errors=True)
            setup_dir.mkdir(parents=True)
            t0 = time.perf_counter()
            workload.setup(setup_dir)
            setup_times.append(time.perf_counter() - t0)
            if len(setup_times) >= SETUP_REPS or sum(setup_times) >= SETUP_BUDGET_S:
                break
        passes = run_passes(args, workload, client, tracer, work) if not client.failures else []
        if passes and not client.failures:
            check_golden(args, workload, client)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    imports = [p["import"] for p in passes] or [import_s]
    setup_s = statistics.median(imports) + statistics.median(setup_times)
    units = dict(END_TO_END) if not args.trace else {n: u for n, (u, _) in PER_LAYER.items()}
    notes = [f"setup: median of {len(imports)} imports (fresh interpreters, or this "
             f"process without passes) + median of {len(setup_times)} setups; "
             f"this process imported in {import_s!r} s"]
    own: list[tuple] = []  # the workload's own figures, printed but not gated
    if passes:
        if args.trace and tracer.unresolved:
            notes.append("unresolved trace targets: " + ", ".join(tracer.unresolved))
        if args.trace:
            metrics, more = per_layer(args, workload, passes, client)
        else:
            metrics, more, own = end_to_end(workload, passes, setup_s)
        notes += more
        notes.append(f"machine probe median {median_of([p['probe'] for p in passes])!r} s "
                     f"over {len(passes)} passes")
    else:
        metrics = dict.fromkeys(units, 0.0)
        if not args.trace:
            metrics["setup_s"] = setup_s
    failed = client.failures
    attempted = max(client.attempted, 1)
    own.append(("error_rate", failed / attempted, "ratio"))
    notes.append(f"error_rate counts {failed} failed of {attempted} operations")

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)}")
    for note in notes:
        print(f"# {note}")
    for (stage, label), messages in client.failed.items():
        for message in messages:
            print(f"FAILED [{stage}] {label}: {message}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    for name, value, unit in own:
        print(f"{name} {value!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return measure(args)
    except UsageError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
