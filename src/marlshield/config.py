"""Run-wide configuration: JSON in, validated dataclasses out.

One JSON document configures a whole experiment under the keys "world",
"shield", and "trainer", plus run-level fields (run count, seed list,
output directory, shield on/off). Every artifact a run writes embeds the
resolved form of this document so outputs stay self-describing.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields, replace

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


def _json_point(v, what="a check-in point"):
    if not (type(v) is list and len(v) == 2 and all(type(c) in (int, float) for c in v)):
        raise ConfigError(f"{what} must be a list of two numbers, got {v!r}")
    return float(v[0]), float(v[1])


def _json_obstacle(o):
    if not (type(o) is dict and "position" in o and set(o) <= {"position", "radius"}
            and type(o.get("radius", 0.0)) in (int, float)):
        raise ConfigError(f"an obstacle must be an object of a position and a numeric radius, got {o!r}")
    return ObstacleSpec(_json_point(o["position"], "an obstacle position"), float(o.get("radius", 0.0)))


# The world's two fields with no plain JSON type: (from JSON, to JSON).
_WORLD_FORMS = {
    "obstacles": (
        lambda v: tuple(map(_json_obstacle, v)),
        lambda v: [{"position": o.position.tolist(), "radius": o.radius} for o in v],
    ),
    "checkin_points": (lambda v: tuple(map(_json_point, v)), lambda v: [c.tolist() for c in v]),
}
_JSON_TYPES = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
               tuple: "a list of integers"}


def _from_json(cls, data, where: str, given=(), forms=()):
    """An instance of dataclass cls: the fields in given, overridden by a JSON object.

    The keys allowed and each value's JSON type come from cls's fields and
    their defaults: a bool, int or str default takes exactly that JSON type
    (neither a float nor a boolean for an int), a float default any number,
    a tuple default a list of integers. A key in forms is converted by its
    function instead; a field with no default (a section) comes from given.
    """
    if type(data) is not dict:
        raise ConfigError(f"{where} must be a JSON object, got {data!r}")
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = set(data) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    kwargs = dict(given)
    try:
        for key, value in data.items():
            kind = type(defaults[key])
            if key in forms:
                value = forms[key](value)
            elif defaults[key] is MISSING:
                continue
            elif kind is float and type(value) is int:
                value = float(value)
            elif kind is tuple and type(value) is list and all(type(v) is int for v in value):
                value = tuple(value)
            elif type(value) is not kind:
                raise ConfigError(f"{key} in {where} must be {_JSON_TYPES[kind]}, got {value!r}")
            kwargs[key] = value
        return cls(**kwargs)
    except ConfigError:
        raise
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ConfigError(f"in {where}: {exc}") from exc


def run_config_from_dict(data: dict) -> RunConfig:
    if type(data) is not dict:
        raise ConfigError("top-level config must be a JSON object")
    world = _from_json(WorldConfig, data.get("world", {}), "'world'", vars(default_world()),
                       {k: parse for k, (parse, _) in _WORLD_FORMS.items()})
    shield = _from_json(ShieldParams, data.get("shield", {}), "'shield'",
                        {"a_max_self": world.a_max, "a_max_other": world.a_max})
    trainer = _from_json(TrainerConfig, data.get("trainer", {}), "'trainer'")
    return _from_json(RunConfig, data, "top level", {"world": world, "shield": shield, "trainer": trainer})


def load_run_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return run_config_from_dict(data)


def resolved_dict(config: RunConfig) -> dict:
    """JSON-serializable form of a config, as embedded in every artifact."""
    data = asdict(config)
    data["world"].update({k: to_json(getattr(config.world, k)) for k, (_, to_json) in _WORLD_FORMS.items()})
    return data


def resolved_json(config: RunConfig) -> str:
    return json.dumps(resolved_dict(config), sort_keys=True, separators=(",", ":"))
