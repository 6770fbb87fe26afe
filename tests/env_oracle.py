"""Array-based reference for the environment step.

The agent state, the integrator, the patrol step and the observations as
they ran with numpy arrays: `ArrayState` holds two float64 arrays that
`step_agent` rebuilds on every call, `step` validates the actions with
numpy reductions and scores rewards into an array, and `observe`
concatenates each agent's parts into its own vector. The package's
float-native `dynamics.step_agent`, `PatrolEnv.step` and
`PatrolEnv.observe` must give the same bytes as these on every input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from marlshield.patrol import PATROLMAN_II, REWARD_CHECKIN, REWARD_CLEAR, REWARD_COLLISION


@dataclass(frozen=True, eq=False)
class ArrayState:
    position: np.ndarray
    velocity: np.ndarray


@dataclass(frozen=True, eq=False)
class ArrayEnvState:
    agents: tuple
    checkin_index: int = 0
    checkins_reached: int = 0
    step_count: int = 0


def from_package(state) -> ArrayEnvState:
    """The oracle's copy of a package EnvState."""
    agents = tuple(ArrayState(np.array(a.position), np.array(a.velocity)) for a in state.agents)
    return ArrayEnvState(agents, state.checkin_index, state.checkins_reached, state.step_count)


def step_agent(state: ArrayState, accel, dt: float, v_max: float) -> ArrayState:
    ax, ay = float(accel[0]), float(accel[1])
    vx = min(max(float(state.velocity[0]) + ax * dt, -v_max), v_max)
    vy = min(max(float(state.velocity[1]) + ay * dt, -v_max), v_max)
    px = float(state.position[0]) + vx * dt
    py = float(state.position[1]) + vy * dt
    return ArrayState(np.array((px, py)), np.array((vx, vy)))


def observe(env, state: ArrayEnvState) -> list[np.ndarray]:
    obs = []
    target = env.world.checkin_points[state.checkin_index]
    for i, agent in enumerate(state.agents):
        other = state.agents[1 - i]
        parts = [agent.position, agent.velocity, other.position - agent.position]
        parts += [o.position - agent.position for o in env.world.obstacles]
        if i == PATROLMAN_II:
            parts.append(target - agent.position)
        else:
            parts.append(np.zeros(2))
        obs.append(np.concatenate(parts))
    return obs


def entity_distances(env, state: ArrayEnvState, agent_idx: int) -> list[float]:
    agent = state.agents[agent_idx]
    px, py = float(agent.position[0]), float(agent.position[1])
    out = []
    other = state.agents[1 - agent_idx]
    d = math.hypot(px - other.position[0], py - other.position[1])
    if d <= env.params.r_sense:
        out.append(d)
    for o in env.world.obstacles:
        d = math.hypot(px - o.position[0], py - o.position[1])
        if d <= env.params.r_sense:
            out.append(d - o.radius)
    return out


def step(env, state: ArrayEnvState, actions):
    """(new state, observations, rewards, per-agent minimum clearance, done)."""
    acts = np.asarray(actions, dtype=float).reshape(2, 2)
    if not np.all(np.isfinite(acts)):
        raise ValueError("actions must be finite")
    if np.max(np.abs(acts)) > env.world.a_max + 1e-9:
        raise ValueError("action components out of range")
    agents = tuple(
        step_agent(agent, acts[i], env.world.dt, env.world.v_max)
        for i, agent in enumerate(state.agents)
    )
    target = env.world.checkin_points[state.checkin_index]
    p2 = agents[PATROLMAN_II].position
    at_target = math.hypot(p2[0] - target[0], p2[1] - target[1]) <= env.d_c
    checkin_index, checkins_reached = state.checkin_index, state.checkins_reached
    if at_target:
        checkin_index = (checkin_index + 1) % len(env.world.checkin_points)
        checkins_reached += 1
    new_state = ArrayEnvState(agents, checkin_index, checkins_reached, state.step_count + 1)

    rewards = np.zeros(2)
    min_clearance = []
    for i in range(2):
        dists = entity_distances(env, new_state, i)
        for d in dists:
            if d <= env.params.d_s:
                rewards[i] += REWARD_COLLISION
            elif i == PATROLMAN_II and at_target:
                rewards[i] += REWARD_CHECKIN
            else:
                rewards[i] += REWARD_CLEAR
        min_clearance.append(min(dists, default=math.inf))
    done = (
        new_state.step_count >= env.episode_len
        or checkins_reached >= len(env.world.checkin_points)
    )
    return new_state, observe(env, new_state), rewards, tuple(min_clearance), done
