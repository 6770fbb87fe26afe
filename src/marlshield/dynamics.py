"""Double-integrator agents and static world geometry.

Everything here is a pure function of its inputs: stepping an agent,
measuring separations, and locating the nearest wall point. The stepping
scheme is semi-implicit Euler (velocity updated first, then position),
which keeps braking commands effective within the same step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_DT = 0.1
DEFAULT_V_MAX = 1.0
DEFAULT_A_MAX = 1.0

# Fixed face order; ties in nearest-face queries resolve to the first entry.
WALL_FACES = ("+x", "-x", "+y", "-y")


def _as_vec2(value, name: str) -> np.ndarray:
    v = np.asarray(value, dtype=float).reshape(2)
    if not math.isfinite(v[0]) or not math.isfinite(v[1]):
        raise ValueError(f"{name} must be a finite 2-vector, got {value!r}")
    return v


@dataclass(frozen=True, eq=False)
class AgentState:
    """Planar point-mass state: position and velocity in world units."""

    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", _as_vec2(self.position, "position"))
        object.__setattr__(self, "velocity", _as_vec2(self.velocity, "velocity"))

    @property
    def speed(self) -> float:
        return float(math.hypot(self.velocity[0], self.velocity[1]))


@dataclass(frozen=True, eq=False)
class ObstacleSpec:
    """Static disc entity; radius 0 means a point with the safe-distance halo."""

    position: np.ndarray
    radius: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "position", _as_vec2(self.position, "position"))
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError(f"obstacle radius must be >= 0, got {self.radius!r}")


@dataclass(frozen=True, eq=False)
class WorldConfig:
    """Square arena with static obstacles and an ordered check-in circuit."""

    wall_half_extent: float = 1.0
    obstacles: tuple[ObstacleSpec, ...] = ()
    checkin_points: tuple[np.ndarray, ...] = ()
    dt: float = DEFAULT_DT
    v_max: float = DEFAULT_V_MAX
    a_max: float = DEFAULT_A_MAX

    def __post_init__(self):
        if not self.wall_half_extent > 0:
            raise ValueError("wall_half_extent must be > 0")
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        if not self.a_max > 0:
            raise ValueError("a_max must be > 0")
        if not self.v_max > 0:
            raise ValueError("v_max must be > 0")
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        object.__setattr__(
            self, "checkin_points", tuple(_as_vec2(c, "checkin point") for c in self.checkin_points)
        )
        e = self.wall_half_extent
        for obs in self.obstacles:
            if abs(obs.position[0]) >= e or abs(obs.position[1]) >= e:
                raise ValueError(f"obstacle at {obs.position} lies outside the wall square")
        for c in self.checkin_points:
            if abs(c[0]) >= e or abs(c[1]) >= e:
                raise ValueError(f"check-in point {c} lies outside the wall square")
            for obs in self.obstacles:
                if math.hypot(c[0] - obs.position[0], c[1] - obs.position[1]) <= obs.radius:
                    raise ValueError(f"check-in point {c} lies inside obstacle at {obs.position}")


def _state_unchecked(px, py, vx, vy) -> AgentState:
    # bypasses __post_init__ for values already validated by the caller
    s = AgentState.__new__(AgentState)
    object.__setattr__(s, "position", np.array((px, py)))
    object.__setattr__(s, "velocity", np.array((vx, vy)))
    return s


def step_agent(state: AgentState, accel, dt: float, v_max: float = DEFAULT_V_MAX) -> AgentState:
    """Advance one agent by dt seconds under constant acceleration.

    Semi-implicit Euler: v' = clip(v + a*dt, +-v_max) per component,
    then p' = p + v'*dt. Deterministic for equal inputs.
    """
    ax, ay = float(accel[0]), float(accel[1])
    if not (math.isfinite(ax) and math.isfinite(ay)):
        raise ValueError(f"accel must be a finite 2-vector, got {accel!r}")
    if not (isinstance(dt, (int, float)) and math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be a positive finite number, got {dt!r}")
    vx = min(max(float(state.velocity[0]) + ax * dt, -v_max), v_max)
    vy = min(max(float(state.velocity[1]) + ay * dt, -v_max), v_max)
    px = float(state.position[0]) + vx * dt
    py = float(state.position[1]) + vy * dt
    return _state_unchecked(px, py, vx, vy)


def _position_of(entity) -> np.ndarray:
    pos = getattr(entity, "position", entity)
    return np.asarray(pos, dtype=float)


def pairwise_distance(a, b) -> float:
    """Euclidean distance between the positions of two entities.

    Accepts AgentState, ObstacleSpec, or a bare 2-vector; symmetric by
    construction.
    """
    pa = _position_of(a)
    pb = _position_of(b)
    return float(math.hypot(pa[0] - pb[0], pa[1] - pb[1]))


def face_clearances(position, half_extent: float) -> list[tuple[str, tuple, float]]:
    """Nearest point and distance to each wall face, in fixed face order.

    Points are plain (x, y) tuples; wall_clearance wraps its winner in an
    array. The agent must be inside the square; outside positions indicate
    an integration or shielding failure upstream, so they raise.
    """
    x, y = float(position[0]), float(position[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"position must be finite, got {position!r}")
    e = float(half_extent)
    if abs(x) > e or abs(y) > e:
        raise ValueError(f"position ({x}, {y}) is outside the wall square (half extent {e})")
    return [
        ("+x", (e, y), e - x),
        ("-x", (-e, y), e + x),
        ("+y", (x, e), e - y),
        ("-y", (x, -e), e + y),
    ]


def wall_clearance(state: AgentState, world: WorldConfig) -> tuple[np.ndarray, float]:
    """Closest point on the square boundary and its distance.

    Ties between faces resolve in the fixed (+x, -x, +y, -y) order.
    """
    faces = face_clearances(state.position, world.wall_half_extent)
    best = min(range(4), key=lambda i: faces[i][2])
    _, point, dist = faces[best]
    return np.array(point), float(dist)
