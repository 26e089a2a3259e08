"""The four benchmark workloads, driven from outside through popsched's API.

A workload builds its configs and reference outputs in `setup`, issues
one pass of operations in `run_pass` and checks that pass's outputs in
`check`. Operations go through the documented library (`get_preset`,
`run_experiment`) and CLI (`popsched.cli.main`); both are looked up on
their modules at call time, so the tracer's wrappers see every call.

Master seeds come from the workload seed alone: a workload uses the
consecutive master seeds `seed, seed + 1, ...`.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import resource
import time
import traceback
from pathlib import Path

import numpy as np

import popsched
import popsched.cli
from popsched.events import read_events
from popsched.lineage import validate_event_log

# The seven two-basin variants of the acceptance comparison.
VARIANTS = (
    "twobasin-mfpbt",
    "twobasin-mfpbt-sym",
    "twobasin-rs",
    "twobasin-pbt-delta1",
    "twobasin-pbt-delta4",
    "twobasin-pbt-delta8",
    "twobasin-pbt-delta16",
)
# Files a run directory is byte-compared on; result.json carries wall clock.
COMPARED = ("config.json", "metrics.csv", "events.jsonl")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def latest_checkpoint(run_dir: Path) -> Path | None:
    snaps = sorted((run_dir / "checkpoints").glob("round_*.json"))
    return snaps[-1] if snaps else None


class Client:
    """One closed-loop client: issues operations back to back, records outcomes.

    An operation fails when it raises, when a CLI call exits non-zero, or
    when a correctness check on its outputs fails. Failures are keyed by
    (stage, operation label), so an operation counts once however many of
    its checks fail.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: dict[tuple[str, str], list[str]] = {}
        self.stage = "setup"

    @property
    def failures(self) -> int:
        return len(self.failed)

    def fail(self, label: str, message: str) -> None:
        self.failed.setdefault((self.stage, label), []).append(message)

    def call(self, label: str, fn, *args, **kwargs):
        """Run one library operation; returns (result or None, seconds)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # the client keeps running and reports the failure
            seconds = time.perf_counter() - start
            self.fail(label, traceback.format_exc(limit=3).strip())
            return None, seconds
        return result, time.perf_counter() - start

    def cli(self, label: str, argv: list[str]) -> tuple[bool, float]:
        """Run one `popsched` command in process; returns (ok, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc, seconds = self.call(label, popsched.cli.main, argv)
            except SystemExit as exc:  # argparse rejected the command line
                rc, seconds = exc.code, 0.0
        if rc != 0:
            self.fail(label, f"popsched {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")
            return False, seconds
        return True, seconds


@dataclasses.dataclass
class PassOutput:
    """What one pass did: per-operation times, agent-steps, check inputs."""

    ops: list[tuple[str, float]] = dataclasses.field(default_factory=list)
    agent_steps: int = 0
    artifacts: dict = dataclasses.field(default_factory=dict)


class Workload:
    name = ""
    # The operation whose latency run_p50_s and run_tail_s report.
    main_op = "run"
    # Worker processes the workload asks popsched for (0: none are started).
    workers = 0
    # A pass leaves an events.jsonl that --inject-fault can corrupt.
    has_event_files = False

    def __init__(self, seed: int, client: Client) -> None:
        self.seed = seed
        self.client = client
        self.digests: dict[str, str] = {}

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def run_pass(self, pass_dir: Path) -> PassOutput:
        raise NotImplementedError

    def check(self, pass_dir: Path, out: PassOutput) -> None:
        raise NotImplementedError

    def extras(self, pass_dir: Path) -> dict[str, float]:
        """Comparison calls made after untraced passes of the traced run only."""
        return {}

    def record_digest(self, label: str, name: str, digest: str) -> None:
        """Every pass must produce the digests the first pass produced."""
        key = f"{label} | {name}"
        first = self.digests.setdefault(key, digest)
        if first != digest:
            self.client.fail(label, f"{name} differs from the first pass")

    def check_event_log(self, label: str, path: Path, num_agents: int) -> None:
        try:
            validate_event_log(read_events(path), num_agents)
        except (ValueError, KeyError) as exc:  # LineageError or a malformed line
            self.client.fail(label, f"{path.name} is not a valid event log: {exc}")


# ------------------------------------------------------------------ sweep

def result_digest(result) -> str:
    """Digest of an in-memory run: its metrics rows and events, in order."""
    h = hashlib.sha256()
    for row in result.metrics:
        h.update(repr((row.round, row.agent_id, row.subpop_id, row.fitness,
                       row.hyperparams)).encode())
    for ev in result.events:
        h.update(ev.to_json_line().encode())
    return h.hexdigest()


class Sweep(Workload):
    """The acceptance comparison loop, in memory: 7 variants x 1 master seed."""

    name = "sweep"

    def setup(self, work: Path) -> None:
        self.configs = {v: popsched.get_preset(v) for v in VARIANTS}

    def run_pass(self, pass_dir: Path) -> PassOutput:
        out = PassOutput()
        for variant, config in self.configs.items():
            result, seconds = self.client.call(
                self.label(variant), popsched.run_experiment, config, seed=self.seed
            )
            out.ops.append(("run", seconds))
            out.artifacts[variant] = result
            if result is not None:
                rounds = max(row.round for row in result.metrics)
                out.agent_steps += config.num_agents * config.t_ready * rounds
        return out

    def label(self, variant: str) -> str:
        return f"run {variant} seed {self.seed}"

    def check(self, pass_dir: Path, out: PassOutput) -> None:
        for variant, result in out.artifacts.items():
            if result is None:
                continue
            label = self.label(variant)
            try:
                validate_event_log(result.events, self.configs[variant].num_agents)
            except ValueError as exc:
                self.client.fail(label, f"event log invalid: {exc}")
            self.record_digest(label, "result", result_digest(result))

    def extras(self, pass_dir: Path) -> dict[str, float]:
        return pool_comparison(self.client, self.seed, pass_dir)


# ---------------------------------------------------------------- persist

CRASH_ROUND = 200


class Persist(Workload):
    """pbt-bt-default with a checkpoint every round, crashed at 200, resumed."""

    name = "persist"
    main_op = "resume"
    has_event_files = True

    @property
    def resume_label(self) -> str:
        return f"resume seed {self.seed}"

    def setup(self, work: Path) -> None:
        self.config = dataclasses.replace(popsched.get_preset("pbt-bt-default"), checkpoint_every=1)
        self.config.validate()
        self.config_path = work / "persist-config.json"
        self.config_path.write_text(json.dumps(self.config.to_json_dict(), indent=2) + "\n")
        self.reference = work / "uninterrupted"
        self.client.call(
            f"uninterrupted reference seed {self.seed}",
            popsched.run_experiment, self.config, seed=self.seed, out_dir=self.reference,
        )

    def crash(self, run_dir: Path, config=None, to_disk: bool = True):
        return self.client.call(
            f"crash run seed {self.seed}",
            popsched.run_experiment, config or self.config, seed=self.seed,
            out_dir=run_dir if to_disk else None, stop_after_round=CRASH_ROUND,
        )

    def run_pass(self, pass_dir: Path) -> PassOutput:
        out = PassOutput()
        run_dir = pass_dir / "run"
        result, seconds = self.crash(run_dir)
        out.ops.append(("crash", seconds))
        if result is None:
            return out
        ok, seconds = self.client.cli(
            self.resume_label,
            ["run", "--config", str(self.config_path), "--seed", str(self.seed),
             "--out", str(run_dir), "--workers", "1", "--resume"],
        )
        out.ops.append(("resume", seconds))
        if ok:
            c = self.config
            out.agent_steps = c.num_agents * c.t_ready * c.num_rounds
        out.artifacts["ok"] = ok
        return out

    def check(self, pass_dir: Path, out: PassOutput) -> None:
        if not out.artifacts.get("ok"):
            return
        run_dir = pass_dir / "run"
        label = self.resume_label
        self.check_event_log(label, run_dir / "events.jsonl", self.config.num_agents)
        ours, ref = latest_checkpoint(run_dir), latest_checkpoint(self.reference)
        if ours is None or ref is None or ours.name != ref.name:
            self.client.fail(label, f"latest checkpoint {ours} differs from {ref}")
            return
        pairs = [(name, run_dir / name, self.reference / name) for name in COMPARED]
        pairs.append(("checkpoints/" + ours.name, ours, ref))
        for name, mine, theirs in pairs:
            digest = sha256_file(mine)
            if digest != sha256_file(theirs):
                self.client.fail(label, f"resumed {name} differs from the uninterrupted run")
            self.record_digest(label, name, digest)

    def extras(self, pass_dir: Path) -> dict[str, float]:
        """The same crash run without checkpoints, and without any disk."""
        plain = dataclasses.replace(self.config, checkpoint_every=0)
        _, no_ckpt = self.crash(pass_dir / "no-checkpoints", config=plain)
        _, in_memory = self.crash(pass_dir, config=plain, to_disk=False)
        return {"crash_no_checkpoint_s": no_ckpt, "crash_in_memory_s": in_memory}


# ---------------------------------------------------------------- analyze

ANALYZE_SEEDS = 2


def iqm(values) -> float:
    vals = sorted(values)
    drop = len(vals) // 4
    kept = vals[drop: len(vals) - drop]
    return sum(kept) / len(kept)


def report_numbers(path: Path) -> list[tuple]:
    """(runs, IQM, IQR low, IQR high) per report row; labels are ignored.

    The label is the first column and is written unquoted, so a label
    with commas ("mfpbt[deltas=1-4-8-16,sym]") spans several fields; the
    other columns are matched to the header from the right of the label.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    numbers = []
    for line in lines[1:]:
        parts = line.split(",")
        row = dict(zip(header[1:], parts[len(parts) - len(header) + 1:]))
        numbers.append((int(row["num_runs"]), float(row["iqm"]),
                        float(row["iqr_low"]), float(row["iqr_high"])))
    return sorted(numbers)


def schedule_trained_rounds(path: Path) -> int:
    with open(path, newline="", encoding="utf-8") as fh:
        return sum(
            int(r["end_round"]) - int(r["start_round"])
            for r in csv.DictReader(fh) if r["trained"] == "1"
        )


class Analyze(Workload):
    """lineage --replay on every run directory plus one report over all of them."""

    name = "analyze"
    main_op = "replay"

    def setup(self, work: Path) -> None:
        self.run_dirs: list[Path] = []
        self.t_ready: dict[Path, int] = {}
        finals: dict[str, list[float]] = {}
        for variant in VARIANTS:
            config = popsched.get_preset(variant)
            for seed in range(self.seed, self.seed + ANALYZE_SEEDS):
                run_dir = work / f"{variant}-seed{seed}"
                result, _ = self.client.call(
                    f"write {variant} seed {seed}",
                    popsched.run_experiment, config, seed=seed, out_dir=run_dir,
                )
                if result is None:
                    continue
                self.check_event_log(f"write {variant} seed {seed}",
                                     run_dir / "events.jsonl", config.num_agents)
                self.run_dirs.append(run_dir)
                self.t_ready[run_dir] = config.t_ready
                finals.setdefault(variant, []).append(result.final_best())
        self.expected_report = sorted(
            (len(v), iqm(v), *(float(q) for q in np.percentile(v, [25.0, 75.0])))
            for v in finals.values()
        )

    def run_pass(self, pass_dir: Path) -> PassOutput:
        out = PassOutput()
        pass_dir.mkdir(parents=True, exist_ok=True)
        schedules = []
        for run_dir in self.run_dirs:
            schedule = pass_dir / f"{run_dir.name}.schedule.csv"
            ok, seconds = self.client.cli(
                f"replay {run_dir.name}",
                ["lineage", str(run_dir), "--replay", "--out", str(schedule)],
            )
            out.ops.append(("replay", seconds))
            if ok:
                schedules.append((run_dir, schedule))
        report_dir = pass_dir / "report"
        ok, seconds = self.client.cli(
            "report", ["report", *map(str, self.run_dirs), "--out", str(report_dir)]
        )
        out.ops.append(("report", seconds))
        out.artifacts["schedules"] = schedules
        out.artifacts["report"] = report_dir / "report.csv" if ok else None
        for run_dir, schedule in schedules:
            out.agent_steps += self.t_ready[run_dir] * schedule_trained_rounds(schedule)
        return out

    def check(self, pass_dir: Path, out: PassOutput) -> None:
        for run_dir, schedule in out.artifacts["schedules"]:
            self.record_digest(f"replay {run_dir.name}", "schedule.csv", sha256_file(schedule))
        report = out.artifacts["report"]
        if report is None:
            return
        try:
            numbers = report_numbers(report)
        except (IndexError, KeyError, ValueError) as exc:
            self.client.fail("report", f"report.csv unreadable: {exc!r}")
            return
        if numbers != self.expected_report:
            self.client.fail("report", f"numbers {numbers} != expected {self.expected_report}")
        self.record_digest("report", "numbers", hashlib.sha256(repr(numbers).encode()).hexdigest())


# --------------------------------------------------------------- workers2

POOL_PRESET = "twobasin-mfpbt"
WORKERS2_SEEDS = 2


def cpu_seconds(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def pool_label(seed: int, workers: int) -> str:
    return f"run {POOL_PRESET} seed {seed} workers {workers}"


def run_pool_preset(client: Client, seed: int, run_dir: Path, workers: int) -> tuple[bool, float]:
    return client.cli(
        pool_label(seed, workers),
        ["run", "--preset", POOL_PRESET, "--seed", str(seed), "--out", str(run_dir),
         "--workers", str(workers)],
    )


def check_same_bytes(client: Client, label: str, run_dir: Path, reference: Path) -> dict[str, str]:
    """Byte-compare a run directory with a reference run; returns the digests."""
    digests = {}
    for name in COMPARED:
        digests[name] = sha256_file(run_dir / name)
        if digests[name] != sha256_file(reference / name):
            client.fail(label, f"{name} differs from the inline run")
    return digests


def pool_comparison(client: Client, seed: int, work: Path) -> dict[str, float]:
    """One seed-run inline and with two workers: times, CPU split, same bytes."""
    inline, pooled = work / "inline", work / "workers2"
    ok_inline, inline_s = run_pool_preset(client, seed, inline, 1)
    cpu_self, cpu_children = cpu_seconds(resource.RUSAGE_SELF), cpu_seconds(resource.RUSAGE_CHILDREN)
    ok_pooled, pooled_s = run_pool_preset(client, seed, pooled, 2)
    parent_cpu = cpu_seconds(resource.RUSAGE_SELF) - cpu_self
    child_cpu = cpu_seconds(resource.RUSAGE_CHILDREN) - cpu_children
    if ok_inline and ok_pooled:
        check_same_bytes(client, pool_label(seed, 2), pooled, inline)
    return {"pool_inline_s": inline_s, "pool_workers2_s": pooled_s,
            "pool_parent_cpu_s": parent_cpu, "pool_child_cpu_s": child_cpu}


class Workers2(Workload):
    """`popsched run --workers 2` on consecutive seeds, against inline runs."""

    name = "workers2"
    workers = 2
    has_event_files = True

    def seeds(self) -> range:
        return range(self.seed, self.seed + WORKERS2_SEEDS)

    def setup(self, work: Path) -> None:
        config = popsched.get_preset(POOL_PRESET)
        self.num_agents = config.num_agents
        self.agent_steps = config.num_agents * config.t_ready * config.num_rounds
        self.inline: dict[int, Path] = {}
        for seed in self.seeds():
            run_dir = work / f"inline-seed{seed}"
            if run_pool_preset(self.client, seed, run_dir, 1)[0]:
                self.inline[seed] = run_dir

    def run_pass(self, pass_dir: Path) -> PassOutput:
        out = PassOutput()
        done = []
        for seed in self.seeds():
            ok, seconds = run_pool_preset(self.client, seed, pass_dir / f"seed{seed}", self.workers)
            out.ops.append(("run", seconds))
            if ok:
                done.append(seed)
                out.agent_steps += self.agent_steps
        out.artifacts["done"] = done
        return out

    def check(self, pass_dir: Path, out: PassOutput) -> None:
        for seed in out.artifacts["done"]:
            run_dir, label = pass_dir / f"seed{seed}", pool_label(seed, self.workers)
            self.check_event_log(label, run_dir / "events.jsonl", self.num_agents)
            if seed not in self.inline:
                continue  # the setup failure is already counted
            for name, digest in check_same_bytes(self.client, label, run_dir, self.inline[seed]).items():
                self.record_digest(label, name, digest)

    def extras(self, pass_dir: Path) -> dict[str, float]:
        return pool_comparison(self.client, self.seed, pass_dir)


WORKLOADS = {w.name: w for w in (Sweep, Persist, Analyze, Workers2)}
