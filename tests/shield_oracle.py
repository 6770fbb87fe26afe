"""Array-and-dataclass reference for the shield's filter path.

The filter as it ran with boxed rows: each row holds an `np.array` normal
in a frozen dataclass, the problem is a frozen dataclass that unboxes the
normals again with `tolist()`, the report is a frozen dataclass, and the
neighborhood builds all four wall faces on every call before the range
test. The barrier arithmetic (`_row_core`) and the solver (`qp.solve`) are
the package's, so `shield.filter_action` must return the same `u_safe`
bytes, status, `min_h`, slack and `constraints_built` as `filter_action`
here on every input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from marlshield import qp
from marlshield.barriers import _row_core
from marlshield.dynamics import face_clearances


@dataclass(frozen=True, eq=False)
class ArrayRow:
    normal: np.ndarray
    bound: float
    kind: str
    counterpart_id: object = None


@dataclass(frozen=True, eq=False)
class FrozenProblem:
    """Duck-types `qp.QpProblem` for `qp.solve`: same fields, same `rows`."""

    nominal: np.ndarray
    constraints: tuple = ()
    box: float = 1.0
    slack_weight: float = 1e6
    rows: tuple = field(init=False, repr=False)

    def __post_init__(self):
        box = float(self.box)
        rows = [(*c.normal.tolist(), float(c.bound)) for c in self.constraints]
        rows += [(1.0, 0.0, box), (-1.0, 0.0, box), (0.0, 1.0, box), (0.0, -1.0, box)]
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "rows", tuple(rows))


@dataclass(frozen=True, eq=False)
class FrozenReport:
    agent_id: object
    u_nominal: np.ndarray
    u_safe: np.ndarray
    constraints_built: dict = field(default_factory=dict)
    status: str = "passthrough"
    min_h: float = math.inf
    slack: float = 0.0


def neighborhood(self_id, all_agents, obstacles, world, r_sense):
    """Peers by id, obstacles in order, and every face built, then range-filtered."""
    peers = sorted(((aid, s) for aid, s in all_agents if aid != self_id), key=lambda item: item[0])
    self_state = next(s for aid, s in all_agents if aid == self_id)
    here = self_state.position.tolist()
    neighbors = [(aid, st) for aid, st in peers if math.dist(here, st.position.tolist()) <= r_sense]
    near_obstacles = [o for o in obstacles if math.dist(here, o.position.tolist()) <= r_sense]
    faces = [
        (face, point, dist)
        for face, point, dist in face_clearances(self_state.position, world.wall_half_extent)
        if dist <= r_sense
    ]
    return neighbors, near_obstacles, faces


def filter_action(agent_id, u_nominal, self_state, neighbors, obstacles, world, params):
    """Same inputs and outputs as `shield.filter_action`, through the containers above."""
    u_hat = np.asarray(u_nominal, dtype=float).reshape(2)
    hx, hy = u_hat.tolist()
    agents = list(neighbors)
    if agent_id not in [aid for aid, _ in agents]:
        agents.append((agent_id, self_state))
    near_agents, near_obstacles, faces = neighborhood(agent_id, agents, obstacles, world, params.r_sense)

    sx, sy = self_state.position.tolist()
    vx, vy = self_state.velocity.tolist()
    a_self, d_s, margin = params.a_max_self, params.d_s, params.margin
    found = []
    for aid, other in near_agents:
        ox, oy = other.position.tolist()
        ovx, ovy = other.velocity.tolist()
        dacc = a_self + params.a_max_other
        full, h = _row_core(sx - ox, sy - oy, vx - ovx, vy - ovy, params.gamma_coo, dacc, d_s, margin)
        found.append((sx - ox, sy - oy, None if full is None else 0.5 * full, h, "cooperative", aid))
    for idx, obs in enumerate(near_obstacles):
        ox, oy = obs.position.tolist()
        full, h = _row_core(sx - ox, sy - oy, vx, vy, params.gamma_non, a_self, d_s + obs.radius, margin)
        found.append((sx - ox, sy - oy, full, h, "non-cooperative", ("obstacle", idx)))
    for face, (px, py), _ in faces:
        nvx, nvy = (vx, 0.0) if face in ("+x", "-x") else (0.0, vy)
        full, h = _row_core(sx - px, sy - py, nvx, nvy, params.gamma_non, a_self, d_s, margin)
        found.append((sx - px, sy - py, full, h, "wall", ("wall", face)))

    rows = []
    built = {"cooperative": 0, "non-cooperative": 0, "wall": 0}
    min_h, worst = math.inf, None
    for dpx, dpy, full, h, kind, cid in found:
        min_h = min(min_h, h)
        if full is None:
            if worst is None or h < worst[0]:
                worst = (h, dpx, dpy)
            r = math.hypot(dpx, dpy)
            if r <= 1e-9:
                continue
            rows.append(ArrayRow(np.array((-dpx / r, -dpy / r)), -a_self, kind, cid))
        else:
            rows.append(ArrayRow(np.array((-dpx, -dpy)), full, kind, cid))
        built[kind] += 1

    nominal = u_hat
    if worst is not None:
        r = math.hypot(worst[1], worst[2])
        nominal = np.array([a_self, 0.0]) if r <= 1e-12 else np.array(
            [a_self * worst[1] / r, a_self * worst[2] / r]
        )
    sol = qp.solve(FrozenProblem(nominal, tuple(rows), a_self, params.slack_weight))
    if worst is not None:
        status = "fallback"
    elif sol.status == qp.STATUS_RELAXED:
        status = "relaxed"
    else:
        status = "passthrough" if sol.u_safe.tolist() == [hx, hy] else "corrected"
    return sol.u_safe, FrozenReport(agent_id, u_hat, sol.u_safe, built, status, min_h, sol.slack)
