"""Command line interface.

Subcommands:

    run       launch one experiment (preset or config file) for one seed
    validate  check a config file or preset and echo its canonical form
    presets   list built-in presets or show one as JSON
    report    aggregate run directories into report.csv / curves.csv
    lineage   reconstruct (and optionally replay) a schedule from a run

Environment override: POPSCHED_OUT_ROOT provides a default root for run
directories given neither by --out nor by the config's out_dir.

Failures print a single machine-readable JSON object on stderr. Exit
codes: 0 success, 1 runtime or data fault, 2 invalid configuration or
usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import ExperimentConfig, read_config
from .core import ConfigError
from .lineage import LineageError, read_lineage, replay_run
from .presets import get_preset, preset_names
from .reporting import (
    aggregate_curve,
    best_fitness_by_round,
    compare_final,
    config_label,
    render_table,
    write_curves_csv,
    write_report_csv,
)
from .rundir import RunDir, read_run
from .runner import run_experiment


def _fail(exc: BaseException, code: int) -> int:
    print(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}),
        file=sys.stderr,
    )
    return code


def _load_config(args) -> ExperimentConfig:
    if args.preset:
        return get_preset(args.preset)
    return read_config(args.config)


def _config_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help="name of a built-in preset")
    group.add_argument("--config", help="path to a config JSON file")


def _default_out(args, config: ExperimentConfig, seed: int) -> Path:
    """The run directory: --out, else the config's out_dir, else under POPSCHED_OUT_ROOT."""
    if args.out:
        return Path(args.out)
    if config.out_dir:
        return Path(config.out_dir)
    root = os.environ.get("POPSCHED_OUT_ROOT")
    if not root:
        raise ConfigError("no --out, config out_dir or POPSCHED_OUT_ROOT given")
    label = args.preset if args.preset else Path(args.config).stem
    return Path(root) / f"{label}-seed{seed}"


def cmd_run(args) -> int:
    if args.workers is not None and args.workers < 1:
        raise ConfigError(f"workers: need >= 1, got {args.workers}")
    config = _load_config(args)
    seed = config.seeds[0] if args.seed is None else args.seed
    out_dir = _default_out(args, config, seed)
    result = run_experiment(config, seed=seed, out_dir=out_dir, resume=args.resume)
    print(f"run complete: {result.run_dir}")
    print(f"final best fitness: {result.final_best()!r} (seed {seed})")
    return 0


def cmd_validate(args) -> int:
    config = _load_config(args)  # get_preset and read_config both validate
    print(json.dumps(config.to_json_dict(), indent=2, sort_keys=True))
    return 0


def cmd_presets(args) -> int:
    if args.show:
        config = get_preset(args.show)
        print(json.dumps(config.to_json_dict(), indent=2, sort_keys=True))
        return 0
    for name in preset_names():
        print(name)
    return 0


def cmd_report(args) -> int:
    resolved = [Path(d).resolve() for d in args.run_dirs]
    if len(set(resolved)) < len(resolved):
        twice = next(d for d, r in zip(args.run_dirs, resolved) if resolved.count(r) > 1)
        raise ConfigError(f"run_dirs: {twice!r} names a run directory given more than once")
    out_dir = Path(args.out)
    if not next(p for p in (out_dir, *out_dir.parents) if p.exists()).is_dir():
        raise ConfigError(f"out: {args.out} must name a directory, existing or to be made")
    curves_by_label: dict[str, list[list[float]]] = {}
    for run_dir in args.run_dirs:
        config, _, metrics = read_run(run_dir)
        curve = best_fitness_by_round(metrics.fitness, config.num_agents)
        curves_by_label.setdefault(config_label(config), []).append(curve)
    curves = [aggregate_curve(label, cs) for label, cs in sorted(curves_by_label.items())]
    finals = {label: [c[-1] for c in cs] for label, cs in curves_by_label.items()}
    summaries = compare_final(finals)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_csv(out_dir / "report.csv", summaries)
    write_curves_csv(out_dir / "curves.csv", curves)
    print(render_table(summaries))
    print(f"wrote {out_dir / 'report.csv'} and {out_dir / 'curves.csv'}")
    return 0


def cmd_lineage(args) -> int:
    agent = args.agent
    if agent != "best" and not (agent.isdecimal() and agent.isascii()):
        raise ConfigError(f"agent: expected 'best' or a non-negative integer, got {agent!r}")
    if args.round is not None and args.round < 1:
        raise ConfigError(f"round: need >= 1, got {args.round}")
    if args.out and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
        raise ConfigError(f"out: {args.out} must name a file in an existing directory")
    read = replay_run if args.replay else read_lineage  # replay_run raises at a round the log differs
    lineage = read(args.run_dir, None if agent == "best" else int(agent), args.round)
    out_path = RunDir(args.run_dir).write_schedule(lineage, args.out)
    print(f"agent {lineage.agent_id} at round {lineage.final_round}: "
          f"{len(lineage.segments)} segments -> {out_path}")
    if args.replay:
        print(f"replayed fitness: {lineage.fitness!r}")
        print(f"logged fitness:   {lineage.fitness!r}")
        print("replay matches the log bit for bit")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popsched",
        description="Population-based hyperparameter schedule optimization engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment seed")
    _config_source(p_run)
    p_run.add_argument("--seed", type=int, default=None, help="master seed (default: config's first)")
    p_run.add_argument("--out", default=None, help="run directory")
    p_run.add_argument("--workers", type=int, default=None,
                       help="accepted for older scripts; a run is one process, "
                            "so any count >= 1 writes the same bytes")
    p_run.add_argument("--resume", action="store_true", help="resume from the latest checkpoint")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="validate a config and echo canonical JSON")
    _config_source(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_pre = sub.add_parser("presets", help="list presets or show one")
    p_pre.add_argument("--show", default=None, help="print this preset's config JSON")
    p_pre.set_defaults(func=cmd_presets)

    p_rep = sub.add_parser("report", help="aggregate run directories")
    p_rep.add_argument("run_dirs", nargs="+", help="run directories to aggregate")
    p_rep.add_argument("--out", required=True, help="output directory for report.csv/curves.csv")
    p_rep.set_defaults(func=cmd_report)

    p_lin = sub.add_parser("lineage", help="reconstruct a hyperparameter schedule")
    p_lin.add_argument("run_dir", help="run directory")
    p_lin.add_argument("--agent", default="best", help="agent id or 'best' (default)")
    p_lin.add_argument("--round", type=int, default=None, help="query round (default: last)")
    p_lin.add_argument("--out", default=None, help="schedule.csv path (default: inside run dir)")
    p_lin.add_argument("--replay", action="store_true",
                       help="replay the schedule and check every round against the log")
    p_lin.set_defaults(func=cmd_lineage)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, KeyError) as exc:
        return _fail(exc, 2)
    except (LineageError, OSError, ValueError) as exc:
        return _fail(exc, 1)


if __name__ == "__main__":
    sys.exit(main())
