"""Run-wide configuration: JSON in, validated dataclasses out.

One JSON document configures a whole experiment under the keys "world",
"shield", and "trainer", plus run-level fields (run count, seed list,
output directory, shield on/off). Every artifact a run writes embeds the
resolved form of this document so outputs stay self-describing.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .barriers import ShieldParams
from .dynamics import ObstacleSpec, WorldConfig
from .maddpg import TrainerConfig
from .patrol import default_world


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key or location."""


@dataclass(frozen=True)
class RunConfig:
    world: WorldConfig
    shield: ShieldParams
    trainer: TrainerConfig
    runs: int = 5
    seeds: tuple[int, ...] = ()
    out_dir: str = "out"
    shield_enabled: bool = True

    def __post_init__(self):
        if type(self.runs) is not int or type(self.shield_enabled) is not bool:
            raise ConfigError(f"runs must be an integer, shield_enabled a boolean: {self.runs!r}, "
                              f"{self.shield_enabled!r}")
        if self.runs < 0:
            raise ConfigError("runs must be >= 0")
        seeds = tuple(int(s) for s in self.seeds)
        if not seeds:
            seeds = tuple(self.trainer.seed + i for i in range(self.runs))
        if len(seeds) != self.runs:
            raise ConfigError(f"seed list length {len(seeds)} != run count {self.runs}")
        if min((self.trainer.seed, *seeds)) < 0:
            raise ConfigError(
                f"seeds must be >= 0, got trainer seed {self.trainer.seed} and seeds {list(seeds)}"
            )
        object.__setattr__(self, "seeds", seeds)
        if self.shield.a_max_self != self.world.a_max:
            raise ConfigError(
                "shield.a_max_self must equal world.a_max "
                f"({self.shield.a_max_self} vs {self.world.a_max}): the filter box "
                "and the action box are the same limit"
            )
        for c in self.world.checkin_points:
            for obs in self.world.obstacles:
                d = float(np.hypot(c[0] - obs.position[0], c[1] - obs.position[1]))
                if d <= obs.radius + self.shield.d_s:
                    raise ConfigError(
                        f"check-in point {c.tolist()} is within the safe radius of the "
                        f"obstacle at {obs.position.tolist()}"
                    )


def default_run_config(**overrides) -> RunConfig:
    world = default_world()
    shield = ShieldParams()
    trainer = TrainerConfig()
    cfg = RunConfig(world=world, shield=shield, trainer=trainer)
    return replace(cfg, **overrides) if overrides else cfg


_WORLD_KEYS = {"wall_half_extent", "obstacles", "checkin_points", "dt", "v_max", "a_max"}
_SHIELD_KEYS = {
    "d_s",
    "a_max_self",
    "a_max_other",
    "gamma_coo",
    "gamma_non",
    "r_sense",
    "slack_weight",
    "margin",
}
_TRAINER_KEYS = {
    "episodes",
    "episode_len",
    "batch_size",
    "discount",
    "soft_update_coef",
    "lr_critic",
    "lr_actor",
    "noise_sigma",
    "noise_decay",
    "update_every",
    "warmup_transitions",
    "buffer_capacity",
    "actor_hidden",
    "critic_hidden",
    "seed",
}
_TOP_KEYS = {"world", "shield", "trainer", "runs", "seeds", "out_dir", "shield_enabled"}


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _world_from_dict(data: dict) -> WorldConfig:
    _check_keys(data, _WORLD_KEYS, "'world'")
    defaults = default_world()
    try:
        obstacles = tuple(
            ObstacleSpec(position=np.asarray(o["position"], dtype=float), radius=float(o.get("radius", 0.0)))
            for o in data.get("obstacles", [asdict_obstacle(x) for x in defaults.obstacles])
        )
        checkins = tuple(
            np.asarray(c, dtype=float)
            for c in data.get("checkin_points", [c.tolist() for c in defaults.checkin_points])
        )
        return WorldConfig(
            wall_half_extent=float(data.get("wall_half_extent", defaults.wall_half_extent)),
            obstacles=obstacles,
            checkin_points=checkins,
            dt=float(data.get("dt", defaults.dt)),
            v_max=float(data.get("v_max", defaults.v_max)),
            a_max=float(data.get("a_max", defaults.a_max)),
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"in 'world': {exc}") from exc


def asdict_obstacle(obs: ObstacleSpec) -> dict:
    return {"position": obs.position.tolist(), "radius": obs.radius}


def _shield_from_dict(data: dict, world: WorldConfig) -> ShieldParams:
    _check_keys(data, _SHIELD_KEYS, "'shield'")
    merged = {"a_max_self": world.a_max, "a_max_other": world.a_max}
    merged.update(data)
    try:
        return ShieldParams(**merged)
    except ValueError as exc:
        raise ConfigError(f"in 'shield': {exc}") from exc


def _trainer_from_dict(data: dict) -> TrainerConfig:
    _check_keys(data, _TRAINER_KEYS, "'trainer'")
    fields = dict(data)
    for key in ("actor_hidden", "critic_hidden"):
        if key in fields:
            fields[key] = tuple(int(v) for v in fields[key])
    try:
        return TrainerConfig(**fields)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"in 'trainer': {exc}") from exc


def run_config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a JSON object")
    _check_keys(data, _TOP_KEYS, "top level")
    world = _world_from_dict(data.get("world", {}))
    shield = _shield_from_dict(data.get("shield", {}), world)
    trainer = _trainer_from_dict(data.get("trainer", {}))
    try:
        return RunConfig(
            world=world,
            shield=shield,
            trainer=trainer,
            runs=data.get("runs", 5),
            seeds=tuple(data.get("seeds", ())),
            out_dir=str(data.get("out_dir", "out")),
            shield_enabled=data.get("shield_enabled", True),
        )
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def load_run_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return run_config_from_dict(data)


def resolved_dict(config: RunConfig) -> dict:
    """JSON-serializable form of a config, as embedded in every artifact."""
    return {
        "world": {
            "wall_half_extent": config.world.wall_half_extent,
            "obstacles": [asdict_obstacle(o) for o in config.world.obstacles],
            "checkin_points": [c.tolist() for c in config.world.checkin_points],
            "dt": config.world.dt,
            "v_max": config.world.v_max,
            "a_max": config.world.a_max,
        },
        "shield": asdict(config.shield),
        "trainer": {**asdict(config.trainer), "actor_hidden": list(config.trainer.actor_hidden), "critic_hidden": list(config.trainer.critic_hidden)},
        "runs": config.runs,
        "seeds": list(config.seeds),
        "out_dir": config.out_dir,
        "shield_enabled": config.shield_enabled,
    }


def resolved_json(config: RunConfig) -> str:
    return json.dumps(resolved_dict(config), sort_keys=True, separators=(",", ":"))
