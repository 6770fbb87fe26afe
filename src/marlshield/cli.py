"""Operator entry point: train runs, evaluate checkpoints, summarize results.

Subcommands:

    marlshield train  --config cfg.json --runs 5 [--no-shield] [--episodes N]
    marlshield eval   --checkpoint ckpt.bin [--config cfg.json] [--episodes N]
    marlshield report --dir out/

Every artifact embeds the resolved config and seed. Exit codes: 0 success,
1 configuration error, 2 runtime divergence, 3 artifact mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import (
    CheckpointError,
    CheckpointMismatchError,
    attach_networks,
    load_checkpoint,
    save_checkpoint,
)
from .config import ConfigError, default_run_config, load_run_config, resolved_json, run_config_from_dict
from .maddpg import MaddpgTrainer, TrainingDivergenceError
from .patrol import PatrolEnv
from .svgplot import render_arena, render_curves

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGENCE = 2
EXIT_ARTIFACT = 3

METRICS_SCHEMA = "# marlshield metrics v1"
TRAJECTORY_SCHEMA = "# marlshield trajectory v1"

# summary.json: the keys report reads, with their JSON types
SUMMARY_TYPES = {"variant": str, "runs": list, "episodes_total": int, "collision_episodes_total": int,
                 "collision_ratio": (int, float)}
EVAL_KEYS = ("reward_I", "reward_II", "collisions_step", "min_dist", "checkins")


def _g(x) -> str:
    return f"{float(x):.10g}"


# metrics.csv: (column, format, parse), in file order
METRICS_FORMAT = (
    ("episode", str, int),
    ("reward_I", _g, float),
    ("reward_II", _g, float),
    ("collisions_step", str, int),
    ("collisions_episode", str, int),
    ("min_dist", _g, float),
    ("slack_events", str, int),
)
# trajectory CSV: (column, format), in file order; _trajectory_values gives the values
TRAJECTORY_FORMAT = (
    ("step", str), ("agent_id", str), ("px", _g), ("py", _g), ("vx", _g), ("vy", _g),
    ("ax_nominal", _g), ("ay_nominal", _g), ("ax_safe", _g), ("ay_safe", _g),
    ("reward", _g), ("min_dist", _g), ("shield_status", str),
)
METRICS_COLUMNS = ",".join(c for c, *_ in METRICS_FORMAT)


def _trajectory_values(r) -> tuple:
    return (r.step, r.agent_id, *r.position, *r.velocity, *r.u_nominal, *r.u_safe, r.reward,
            r.min_entity_distance, r.shield_status)


class ArtifactError(RuntimeError):
    pass


def _resolve_out_dir(args, config) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    env_dir = os.environ.get("CBF_SHIELD_OUT")
    if env_dir:
        return Path(env_dir)
    return Path(config.out_dir)


def _apply_overrides(config, args):
    if getattr(args, "runs", None) is not None:
        config = replace(config, runs=args.runs, seeds=())
    if getattr(args, "episodes", None) is not None:
        try:
            trainer = replace(config.trainer, episodes=args.episodes)
        except ValueError as exc:
            raise ConfigError(f"--episodes: {exc}") from exc
        config = replace(config, trainer=trainer)
    if getattr(args, "seed", None) is not None:
        config = replace(
            config,
            trainer=replace(config.trainer, seed=args.seed),
            seeds=tuple(args.seed + i for i in range(config.runs)),
        )
    if getattr(args, "no_shield", False):
        config = replace(config, shield_enabled=False)
    return config


def _write_csv(path: Path, schema: str, table, rows, config_json: str, seed: int) -> None:
    """One CSV artifact: schema line, seed and config line, header, then one line per row of values."""
    lines = [schema, f"# seed={seed} config={config_json}", ",".join(c for c, *_ in table)]
    lines += [",".join(fmt(v) for (_, fmt, *_), v in zip(table, values, strict=True)) for values in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_train(args) -> int:
    config = load_run_config(args.config) if args.config else default_run_config()
    config = _apply_overrides(config, args)
    out_dir = _resolve_out_dir(args, config)
    variant = "shielded" if config.shield_enabled else "unshielded"
    variant_dir = out_dir / variant
    variant_dir.mkdir(parents=True, exist_ok=True)
    config_json = resolved_json(config)

    run_rows = []
    for i, seed in enumerate(config.seeds):
        trainer_cfg = replace(config.trainer, seed=seed)
        env = PatrolEnv(
            config.world, config.shield, episode_len=config.trainer.episode_len
        )
        trainer = MaddpgTrainer(env, trainer_cfg, shield_enabled=config.shield_enabled)
        rows = trainer.train()
        run_dir = variant_dir / f"run{i:02d}_seed{seed}"
        run_dir.mkdir(parents=True, exist_ok=True)
        _write_csv(run_dir / "metrics.csv", METRICS_SCHEMA, METRICS_FORMAT,
                   ([r[c] for c, *_ in METRICS_FORMAT] for r in rows), config_json, seed)
        save_checkpoint(run_dir / "checkpoint.bin", trainer, config_json)
        run = {
            "run": i,
            "seed": seed,
            "episodes": len(rows),
            "collisions_step": sum(r["collisions_step"] for r in rows),
            "collision_episodes": sum(r["collisions_episode"] for r in rows),
        }
        run_rows.append(run)
        print(
            f"[{variant}] run {i} seed {seed}: episodes={run['episodes']} "
            f"collision_episodes={run['collision_episodes']} collision_steps={run['collisions_step']}"
        )

    episodes = sum(r["episodes"] for r in run_rows)
    collision_episodes = sum(r["collision_episodes"] for r in run_rows)
    ratio = collision_episodes / episodes if episodes else 0.0
    summary = {
        "variant": variant,
        "runs": run_rows,
        "episodes_total": episodes,
        "collision_episodes_total": collision_episodes,
        "collision_steps_total": sum(r["collisions_step"] for r in run_rows),
        "collision_ratio": ratio,
        "config": json.loads(config_json),
    }
    (variant_dir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(
        f"[{variant}] total: {collision_episodes}/{episodes} collision episodes "
        f"({100.0 * ratio:.3f}%)"
    )
    return EXIT_OK


def _zoom_views(rows, world, pad=0.12):
    """Two non-overlapping windows around the closest approaches of an episode."""
    by_step = {}
    for r in rows:
        by_step.setdefault(r.step, []).append(r)
    ranked = sorted(by_step, key=lambda s: min(r.min_entity_distance for r in by_step[s]))
    separation = max(1, len(by_step) // 4)
    half = max(2, min(15, len(by_step) // 2))
    picks = []
    for s in ranked:
        if all(abs(s - p) > separation for p in picks):
            picks.append(s)
        if len(picks) == 2:
            break
    views = []
    for s in sorted(picks):
        window = [r for r in rows if s - half <= r.step <= s + half]
        xs = [float(r.position[0]) for r in window]
        ys = [float(r.position[1]) for r in window]
        e = world.wall_half_extent
        views.append(
            (
                s,
                (
                    max(min(xs) - pad, -e),
                    min(max(xs) + pad, e),
                    max(min(ys) - pad, -e),
                    min(max(ys) + pad, e),
                ),
                window,
            )
        )
    return views


def cmd_eval(args) -> int:
    episodes = args.episodes if args.episodes is not None else 1
    if episodes < 0:
        raise ConfigError(f"--episodes must be >= 0, got {episodes}")
    ckpt_config_json, agents = load_checkpoint(args.checkpoint)
    if args.config:
        config = load_run_config(args.config)
    else:
        config = run_config_from_dict(json.loads(ckpt_config_json))
    # --episodes means evaluation episodes here; only the seed override
    # touches the embedded config
    if args.seed is not None:
        config = replace(config, trainer=replace(config.trainer, seed=args.seed))
    out_dir = _resolve_out_dir(args, config)
    out_dir.mkdir(parents=True, exist_ok=True)
    config_json = resolved_json(config)
    seed = args.seed if args.seed is not None else config.trainer.seed

    env = PatrolEnv(config.world, config.shield, episode_len=config.trainer.episode_len)
    trainer = MaddpgTrainer(env, replace(config.trainer, seed=seed), shield_enabled=True)
    attach_networks(trainer, agents)

    def arena_svg(rows, title, view=None):
        paths = {f"patrolman {i + 1}": np.array([r.position for r in rows if r.agent_id == i])
                 for i in range(env.n_agents)}
        return render_arena(config.world, paths, d_s=config.shield.d_s, title=title,
                            metadata=config_json, view=view)

    totals = []
    all_metrics = []
    for ep in range(episodes):
        metrics, rows = trainer.run_episode(seed + ep, sigma=0.0, learn=False, record=True)
        _write_csv(out_dir / f"trajectory_ep{ep:03d}.csv", TRAJECTORY_SCHEMA, TRAJECTORY_FORMAT,
                   map(_trajectory_values, rows), config_json, seed + ep)
        all_metrics.append({"episode": ep, **{k: metrics[k] for k in EVAL_KEYS}})
        totals.append(metrics["reward_I"] + metrics["reward_II"])
        svg = arena_svg(rows, f"episode {ep}: trajectories")
        (out_dir / f"trajectory_ep{ep:03d}.svg").write_text(svg, encoding="utf-8")
        if ep == 0 and rows:
            for k, (step, view, window) in enumerate(_zoom_views(rows, config.world)):
                svg = arena_svg(window, f"episode 0 segment around step {step}", view)
                (out_dir / f"trajectory_ep000_zoom{k}.svg").write_text(svg, encoding="utf-8")
    if episodes == 0:
        _write_csv(out_dir / "trajectory_ep000.csv", TRAJECTORY_SCHEMA, TRAJECTORY_FORMAT, [], config_json, seed)
    curve = render_curves(
        {"total reward": (list(range(len(totals))), totals)},
        title="evaluation total reward per episode",
        metadata=config_json,
        y_label="reward",
    )
    (out_dir / "eval_rewards.svg").write_text(curve, encoding="utf-8")
    (out_dir / "eval_summary.json").write_text(
        json.dumps(
            {"episodes": all_metrics, "seed": seed, "config": json.loads(config_json)},
            sort_keys=True,
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    for m in all_metrics:
        print(
            f"eval episode {m['episode']}: checkins={m['checkins']} "
            f"collisions={m['collisions_step']} min_dist={m['min_dist']:.4f}"
        )
    return EXIT_OK


def _read_metrics_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != METRICS_SCHEMA:
        raise ArtifactError(f"{path}: unsupported metrics schema (expected '{METRICS_SCHEMA}')")
    rows = []
    for line in lines[1:]:
        if line.startswith("#") or line == METRICS_COLUMNS or not line.strip():
            continue
        try:
            rows.append({c: parse(v) for (c, _, parse), v in zip(METRICS_FORMAT, line.split(","), strict=True)})
        except ValueError as exc:
            raise ArtifactError(f"{path}: malformed metrics row {line!r}") from exc
    return rows


def _read_summary(path: Path) -> dict:
    """A variant's summary.json holding every key the report reads, each of its JSON type, else ArtifactError."""
    try:
        summary = json.loads(path.read_text(encoding="utf-8"))
        bad = [k for k, kind in SUMMARY_TYPES.items() if not isinstance(summary.get(k), kind)]
        bad += [
            f"runs[{i}].{k}"
            for i, run in enumerate(summary["runs"])
            for k in ("run", "seed")
            if type(run.get(k)) is not int
        ]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ArtifactError(f"{path}: malformed summary ({exc!r})") from exc
    if bad:
        raise ArtifactError(f"{path}: summary lacks or mistypes {', '.join(bad)}")
    return summary


def cmd_report(args) -> int:
    root = Path(args.dir)
    if not root.exists():
        raise ArtifactError(f"run directory {root} does not exist")
    summaries = sorted(root.glob("*/summary.json"))
    if not summaries:
        raise ArtifactError(f"no */summary.json artifacts under {root}")
    variants = {}
    curves = {}
    missing = []
    for spath in summaries:
        summary = _read_summary(spath)
        variant = summary["variant"]
        variants[variant] = summary
        per_episode = []
        for run in summary["runs"]:
            mpath = spath.parent / f"run{run['run']:02d}_seed{run['seed']}" / "metrics.csv"
            if not mpath.exists():
                missing.append(str(mpath))
                continue
            rows = _read_metrics_csv(mpath)
            per_episode.append([r["reward_I"] + r["reward_II"] for r in rows])
        if per_episode:
            n = min(len(x) for x in per_episode)
            mean = [sum(run[e] for run in per_episode) / len(per_episode) for e in range(n)]
            curves[variant] = (list(range(n)), mean)
    if missing:
        raise ArtifactError("missing artifacts: " + ", ".join(missing))

    order = [v for v in ("shielded", "unshielded") if v in variants]
    order += [v for v in sorted(variants) if v not in order]
    table = (
        ("Number of collisions", lambda s: str(s["collision_episodes_total"])),
        ("Number of episodes", lambda s: str(s["episodes_total"])),
        ("Collision ratio", lambda s: f"{100.0 * s['collision_ratio']:.3f}%"),
    )
    lines = ["# Run report", "", "| | " + " | ".join(order) + " |", "|---" * (len(order) + 1) + "|"]
    lines += [f"| {label} | " + " | ".join(value(variants[v]) for v in order) + " |" for label, value in table]
    report_path = root / "report.md"
    report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if curves:
        svg = render_curves(
            {v: curves[v] for v in order if v in curves},
            title="average total reward of both agents per episode",
            y_label="reward",
        )
        (root / "rewards.svg").write_text(svg, encoding="utf-8")
    print("\n".join(lines))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="marlshield", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one or more training runs")
    p_train.add_argument("--config", help="JSON run configuration")
    p_train.add_argument("--runs", type=int, help="number of runs (seeds derived)")
    p_train.add_argument("--episodes", type=int, help="episodes per run")
    p_train.add_argument("--seed", type=int, help="base seed; run i uses seed+i")
    p_train.add_argument("--no-shield", action="store_true", help="disable the safety filter")
    p_train.add_argument("--out", help="output directory (else $CBF_SHIELD_OUT, else config)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="greedy shielded rollouts from a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--config", help="JSON config; defaults to the checkpoint's embedded one")
    p_eval.add_argument("--episodes", type=int, help="evaluation episodes (default 1)")
    p_eval.add_argument("--seed", type=int, help="evaluation reset seed")
    p_eval.add_argument("--out", help="output directory")
    p_eval.set_defaults(func=cmd_eval)

    p_report = sub.add_parser("report", help="summarize a finished output directory")
    p_report.add_argument("--dir", required=True, help="directory holding */summary.json")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (CheckpointMismatchError, CheckpointError, ArtifactError) as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return EXIT_ARTIFACT


if __name__ == "__main__":
    sys.exit(main())
