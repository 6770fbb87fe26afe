"""Double-integrator agents and static world geometry.

Everything here is a pure function of its inputs: stepping an agent and
measuring the clearance to each wall face. The stepping
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

def _as_vec2(value, name: str) -> list[float]:
    try:
        v = np.asarray(value, dtype=float).reshape(2).tolist()
    except OverflowError:  # a Python int beyond the float range is not finite
        v = [math.inf, math.inf]
    if not math.isfinite(v[0]) or not math.isfinite(v[1]):
        raise ValueError(f"{name} must be a finite 2-vector, got {value!r}")
    return v


def _read_only(self, name, value):
    raise AttributeError(f"{type(self).__name__}.{name} is read-only")


class AgentState:
    """Planar point-mass state in world units: a slotted, read-only record of floats.

    Built from two finite 2-vectors (ValueError otherwise) and stored as
    `px`, `py`, `vx`, `vy`. `position` and `velocity` read as fresh
    arrays, so writing into them changes no state.
    """

    __slots__ = ("px", "py", "vx", "vy")
    __setattr__ = _read_only
    position = property(lambda self: np.array((self.px, self.py)))
    velocity = property(lambda self: np.array((self.vx, self.vy)))

    def __new__(cls, position, velocity):
        return _state_unchecked(*_as_vec2(position, "position"), *_as_vec2(velocity, "velocity"))

    def __reduce__(self):
        return _state_unchecked, (self.px, self.py, self.vx, self.vy)

    def __repr__(self):
        return f"AgentState(position={self.position!r}, velocity={self.velocity!r})"


_SET_PX, _SET_PY, _SET_VX, _SET_VY = (getattr(AgentState, n).__set__ for n in AgentState.__slots__)


def _state_unchecked(px, py, vx, vy) -> AgentState:
    # an AgentState of four floats, without the constructor's checks
    s = object.__new__(AgentState)
    _SET_PX(s, px)
    _SET_PY(s, py)
    _SET_VX(s, vx)
    _SET_VY(s, vy)
    return s


class ObstacleSpec:
    """Static disc entity, a read-only record like AgentState: floats `px`, `py`, `radius` (0: a point)."""

    __slots__ = ("px", "py", "radius")
    __setattr__ = _read_only
    position = property(lambda self: np.array((self.px, self.py)))

    def __init__(self, position, radius: float = 0.0):
        for name, value in zip(self.__slots__, (*_as_vec2(position, "position"), radius)):
            object.__setattr__(self, name, value)
        if not (math.isfinite(radius) and radius >= 0.0):
            raise ValueError(f"obstacle radius must be >= 0, got {radius!r}")

    def __reduce__(self):
        return ObstacleSpec, ((self.px, self.py), self.radius)

    def __repr__(self):
        return f"ObstacleSpec(position={self.position!r}, radius={self.radius!r})"


@dataclass(frozen=True, eq=False)
class WorldConfig:
    """Square arena with static obstacles and an ordered check-in circuit of read-only arrays."""

    wall_half_extent: float = 1.0
    obstacles: tuple[ObstacleSpec, ...] = ()
    checkin_points: tuple[np.ndarray, ...] = ()
    dt: float = DEFAULT_DT
    v_max: float = DEFAULT_V_MAX
    a_max: float = DEFAULT_A_MAX

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.wall_half_extent, self.dt, self.v_max, self.a_max)):
            raise ValueError(f"wall_half_extent, dt, v_max and a_max must be finite, got {self!r}")
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
            self, "checkin_points", tuple(np.array(_as_vec2(c, "checkin point")) for c in self.checkin_points)
        )
        e = self.wall_half_extent
        for obs in self.obstacles:
            if abs(obs.position[0]) >= e or abs(obs.position[1]) >= e:
                raise ValueError(f"obstacle at {obs.position} lies outside the wall square")
        for c in self.checkin_points:
            c.setflags(write=False)
            if abs(c[0]) >= e or abs(c[1]) >= e:
                raise ValueError(f"check-in point {c} lies outside the wall square")
            for obs in self.obstacles:
                if math.hypot(c[0] - obs.position[0], c[1] - obs.position[1]) <= obs.radius:
                    raise ValueError(f"check-in point {c} lies inside obstacle at {obs.position}")

    def __reduce__(self):
        # through the constructor, so copies get read-only check-in arrays too
        return WorldConfig, (self.wall_half_extent, self.obstacles, self.checkin_points,
                             self.dt, self.v_max, self.a_max)


def step_agent(state: AgentState, accel, dt: float, v_max: float = DEFAULT_V_MAX) -> AgentState:
    """Advance one agent by dt seconds under constant acceleration.

    Semi-implicit Euler: v' = clip(v + a*dt, +-v_max) per component,
    then p' = p + v'*dt. Deterministic for equal inputs.
    """
    # a Python int beyond the float range raises OverflowError where it meets
    # a float; it is not finite, so it gets the ValueError of its argument
    try:
        ax, ay = float(accel[0]), float(accel[1])
    except OverflowError:
        ax = ay = math.inf
    if not (math.isfinite(ax) and math.isfinite(ay)):
        raise ValueError(f"accel must be a finite 2-vector, got {accel!r}")
    try:
        if not (isinstance(dt, (int, float)) and math.isfinite(dt) and dt > 0):
            raise ValueError
    except (ValueError, OverflowError):
        raise ValueError(f"dt must be a positive finite number, got {dt!r}") from None
    # conditionals, not min(max()): the same operand on every input, NaN
    # included, without two builtin calls per component
    lo = -v_max
    vx = state.vx + ax * dt
    vx = lo if lo > vx else vx
    vx = v_max if v_max < vx else vx
    vy = state.vy + ay * dt
    vy = lo if lo > vy else vy
    vy = v_max if v_max < vy else vy
    return _state_unchecked(state.px + vx * dt, state.py + vy * dt, vx, vy)


def face_clearances(position, half_extent: float) -> list[tuple[str, tuple, float]]:
    """Nearest point and distance to each wall face, in fixed face order.

    Points are plain (x, y) tuples; the nearest face is the first entry of
    least distance. The agent must be inside the square; outside positions
    indicate an integration or shielding failure upstream, so they raise.
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
