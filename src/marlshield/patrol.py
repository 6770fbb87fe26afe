"""Two-patrolman task: one agent wanders, the other works a check-in circuit.

The arena is a square wall with static point obstacles and five ordered
check-in points. Rewards count nearby entities (the other agent and the
obstacles, never the walls): each one contributes -50 while at or below
the safe distance and +50 otherwise, upgraded to +100 for the check-in
patrolman while it sits within the critical distance of its current
target. Each step scans every agent's clearances once, for the rewards
and for the per-agent minimum kept on the returned state; `EpisodeLedger`
folds those states into an episode's metrics, step by step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barriers import ShieldParams
from .dynamics import AgentState, WorldConfig, _finite, _read_only, step_agent
from .qp import _FLOAT64
from .shield import STATUS_PASSTHROUGH, STATUS_RELAXED

PATROLMAN_I = 0  # random patrol, no target term
PATROLMAN_II = 1  # check-in circuit

REWARD_COLLISION = -50.0
REWARD_CLEAR = 50.0
REWARD_CHECKIN = 100.0

N_AGENTS = 2


class EnvState:
    """Joint snapshot, a slotted read-only record like AgentState; checkin_index wraps forward-only
    through the circuit; PatrolEnv.step fills in min_clearance (per agent; inf: none in range).
    """

    __slots__ = ("agents", "checkin_index", "checkins_reached", "step_count", "min_clearance")
    __setattr__ = _read_only

    def __new__(cls, agents, checkin_index=0, checkins_reached=0, step_count=0, min_clearance=()):
        s = object.__new__(cls)
        _SET_AGENTS(s, agents)
        _SET_INDEX(s, checkin_index)
        _SET_REACHED(s, checkins_reached)
        _SET_STEPS(s, step_count)
        _SET_MIN_CLEARANCE(s, min_clearance)
        return s

    def __reduce__(self):
        return EnvState, (self.agents, self.checkin_index, self.checkins_reached, self.step_count, self.min_clearance)


_SET_AGENTS, _SET_INDEX, _SET_REACHED, _SET_STEPS, _SET_MIN_CLEARANCE = (getattr(EnvState, n).__set__ for n in EnvState.__slots__)


@dataclass(frozen=True, eq=False)
class TrajectoryRow:
    """One agent at one step, matching the trajectory CSV schema."""

    step: int
    agent_id: int
    position: np.ndarray
    velocity: np.ndarray
    u_nominal: np.ndarray
    u_safe: np.ndarray
    reward: float
    min_entity_distance: float
    shield_status: str


class CrowdedWorldError(RuntimeError):
    """Reset rejection sampling exhausted: the world leaves no room to spawn."""


class PatrolEnv:
    """Deterministic episode mechanics; all randomness enters through reset(seed)."""

    def __init__(
        self,
        world: WorldConfig,
        shield_params: ShieldParams,
        episode_len: int = 200,
        d_c: float = 0.05,
        reset_margin: float = 0.05,
    ):
        if episode_len < 0:
            raise ValueError("episode_len must be >= 0")
        if len(world.checkin_points) == 0:
            raise ValueError("world must define at least one check-in point")
        if not all(_finite(v) and v >= 0 for v in (d_c, reset_margin)):
            raise ValueError(f"d_c and reset_margin must be finite and >= 0, got {d_c!r} and {reset_margin!r}")
        self.world = world
        # float copies for the step; WorldConfig's arrays are read-only, so these cannot go stale
        self._targets = tuple(tuple(c.tolist()) for c in world.checkin_points)
        self._obstacles = tuple((o.px, o.py, o.radius) for o in world.obstacles)
        self.params = shield_params
        self.episode_len = episode_len
        self.d_c = d_c
        self.reset_margin = reset_margin

    @property
    def n_agents(self) -> int:
        return N_AGENTS

    @property
    def obs_dim(self) -> int:
        # self pos + self vel + other rel + obstacles rel + target rel
        return 8 + 2 * len(self.world.obstacles)

    def reset(self, seed) -> tuple[EnvState, np.ndarray]:
        """Spawn both agents at rest, uniformly in the wall, clear of everything.

        Placements keep every agent/agent, agent/obstacle, and agent/wall
        separation above d_s + reset_margin; CrowdedWorldError is raised
        once 1000 draws in total have not placed every agent.
        """
        rng = np.random.default_rng(seed)
        e = self.world.wall_half_extent
        clearance = self.params.d_s + self.reset_margin
        placed: list[np.ndarray] = []
        attempts = 0
        while len(placed) < N_AGENTS:
            pos = rng.uniform(-e, e, size=2)
            attempts += 1
            if attempts > 1000:
                raise CrowdedWorldError(
                    f"could not place {N_AGENTS} agents with clearance {clearance} in 1000 draws"
                )
            if e - abs(pos[0]) <= clearance or e - abs(pos[1]) <= clearance:
                continue
            if any(
                math.hypot(pos[0] - o.px, pos[1] - o.py) - o.radius <= clearance
                for o in self.world.obstacles
            ):
                continue
            if any(math.hypot(pos[0] - p[0], pos[1] - p[1]) <= clearance for p in placed):
                continue
            placed.append(pos)
        agents = tuple(AgentState(p, np.zeros(2)) for p in placed)
        state = EnvState(agents=agents)
        return state, self.observe(state)

    def observe(self, state: EnvState) -> np.ndarray:
        """Observations as one (n_agents, obs_dim) float array: own position and velocity,
        then the offsets of the peer, each obstacle and the target (zeros for patrolman I).
        """
        a0, a1 = state.agents
        x0, y0, x1, y1 = a0.px, a0.py, a1.px, a1.py
        row0 = [x0, y0, a0.vx, a0.vy, x1 - x0, y1 - y0]
        row1 = [x1, y1, a1.vx, a1.vy, x0 - x1, y0 - y1]
        for ox, oy, _ in self._obstacles:
            row0 += (ox - x0, oy - y0)
            row1 += (ox - x1, oy - y1)
        tx, ty = self._targets[state.checkin_index]
        row0 += (0.0, 0.0)
        row1 += (tx - x1, ty - y1)
        return np.array((row0, row1))

    def entity_distances(self, state: EnvState, agent_idx: int) -> list[float]:
        """Clearances to every entity within sensing range (same range the shield uses)."""
        agent = state.agents[agent_idx]
        px, py = agent.px, agent.py
        r_sense = self.params.r_sense
        out = []
        other = state.agents[1 - agent_idx]
        d = math.hypot(px - other.px, py - other.py)
        if d <= r_sense:
            out.append(d)
        for ox, oy, radius in self._obstacles:
            d = math.hypot(px - ox, py - oy)
            if d <= r_sense:
                out.append(d - radius)
        return out

    def min_entity_distance(self, state: EnvState, agent_idx: int) -> float:
        return min(self.entity_distances(state, agent_idx), default=math.inf)

    def step(self, state: EnvState, actions) -> tuple[EnvState, np.ndarray, np.ndarray, bool]:
        """Integrate both agents, score rewards as floats (one array at the end), advance the circuit.

        Actions: shape (n_agents, 2), finite, within +-a_max. Returns (state, `observe` rows, rewards, done).
        """
        world = self.world
        acts = actions
        if not (type(acts) is np.ndarray and acts.dtype is _FLOAT64):
            try:
                acts = np.asarray(acts, dtype=float)
            except OverflowError:  # a Python int beyond the float range is not finite
                raise ValueError("actions must be finite") from None
        if acts.shape != (N_AGENTS, 2):
            raise ValueError(f"actions must have shape ({N_AGENTS}, 2), got {acts.shape}")
        rows = acts.tolist()
        (x0, y0), (x1, y1) = rows
        lim = world.a_max + 1e-9
        # one chained test accepts finite in-box actions (NaN fails it); only a failing
        # action runs the checks that pick the message
        if not (-lim <= x0 <= lim and -lim <= y0 <= lim and -lim <= x1 <= lim and -lim <= y1 <= lim):
            if not all(map(math.isfinite, rows[0] + rows[1])):
                raise ValueError("actions must be finite")
            if max(map(abs, rows[0] + rows[1])) > lim:
                raise ValueError(f"action components must lie within +-{world.a_max}, got {rows!r}")
        a0, a1 = state.agents
        agents = (step_agent(a0, rows[0], world.dt, world.v_max), step_agent(a1, rows[1], world.dt, world.v_max))
        tx, ty = self._targets[state.checkin_index]
        p2 = agents[PATROLMAN_II]
        at_target = math.hypot(p2.px - tx, p2.py - ty) <= self.d_c

        checkin_index, checkins_reached = state.checkin_index, state.checkins_reached
        if at_target:
            checkin_index = (checkin_index + 1) % len(self._targets)
            checkins_reached += 1
        new_state = EnvState(agents, checkin_index, checkins_reached, state.step_count + 1)

        # one pass over each agent's clearances scores it and keeps its minimum;
        # conditionals, not min(), so the first least clearance is kept as min() keeps it
        d_s = self.params.d_s
        rewards = []
        min_clearance = []
        for i, clear in ((PATROLMAN_I, REWARD_CLEAR), (PATROLMAN_II, REWARD_CHECKIN if at_target else REWARD_CLEAR)):
            r, m = 0.0, math.inf
            for d in self.entity_distances(new_state, i):
                r += REWARD_COLLISION if d <= d_s else clear
                m = d if d < m else m
            rewards.append(r)
            min_clearance.append(m)
        # filled in before the state leaves step, so it reads as immutable
        _SET_MIN_CLEARANCE(new_state, tuple(min_clearance))

        done = new_state.step_count >= self.episode_len or checkins_reached >= len(self._targets)
        return new_state, self.observe(new_state), np.array(rewards), done


class EpisodeLedger:
    """One episode's metrics, fed once per step; no steps give zero counts.

    Reward totals are two floats. A collision step has some clearance at or
    below d_s. Any filter status but passthrough is an intervention, a
    relaxed one also a slack event; unshielded steps pass no reports.
    """

    def __init__(self, d_s: float):
        self.d_s = d_s
        self.reward_I = self.reward_II = 0.0
        self.collision_steps = 0
        self.min_dist = math.inf
        self.checkins = 0
        self.corrections = 0
        self.slack_events = 0

    def record(self, state: EnvState, rewards, reports=None) -> None:
        """Add one step: the state PatrolEnv.step returned, its rewards, the filter reports."""
        r_i, r_ii = rewards.tolist()
        self.reward_I, self.reward_II = self.reward_I + r_i, self.reward_II + r_ii
        # comparisons, not min()/max(): the same result on the same operands, without three builtin calls
        c0, c1 = state.min_clearance
        step_min = c1 if c1 < c0 else c0
        if step_min < self.min_dist:
            self.min_dist = step_min
        if step_min <= self.d_s:
            self.collision_steps += 1
        if state.checkins_reached > self.checkins:
            self.checkins = state.checkins_reached
        for rep in reports or ():
            if rep.status != STATUS_PASSTHROUGH:
                self.corrections += 1
            if rep.status == STATUS_RELAXED:
                self.slack_events += 1

    def metrics(self) -> dict:
        return {
            "reward_I": self.reward_I,
            "reward_II": self.reward_II,
            "collisions_step": self.collision_steps,
            "collisions_episode": int(self.collision_steps > 0),
            "min_dist": self.min_dist,
            "checkins": self.checkins,
            "corrections": self.corrections,
            "slack_events": self.slack_events,
        }


def default_world() -> WorldConfig:
    """The stock 2x2 arena: three point obstacles between the check-in legs."""
    from .dynamics import ObstacleSpec

    return WorldConfig(
        wall_half_extent=1.0,
        obstacles=(
            ObstacleSpec(position=np.array([-0.35, 0.0])),
            ObstacleSpec(position=np.array([0.35, 0.25])),
            ObstacleSpec(position=np.array([0.0, -0.45])),
        ),
        checkin_points=(
            np.array([0.7, 0.7]),
            np.array([0.7, -0.7]),
            np.array([-0.7, -0.7]),
            np.array([-0.7, 0.7]),
            np.array([0.0, 0.0]),
        ),
        dt=0.1,
        v_max=1.0,
        a_max=1.0,
    )
