"""Per-agent safety filter around a nominal action.

For one focal agent the filter gathers the local neighborhood (peers,
obstacles, wall faces within sensing range), builds one linear constraint
per entity, stacks them into a single projection QP, and returns the
filtered action plus a diagnostics report. Stacking enforces membership in
the intersection of all per-entity safe sets, so one solve covers every
nearby hazard at once.

When any entity is already at or below the safe distance, or its barrier
value is nonpositive, no constraint exists for it; the filter then swaps
the nominal action for maximal braking away from the most imminent threat
(the entity with the smallest barrier value) and still projects that
braking through the surviving rows, so an emergency maneuver for one
entity cannot ram another.

Rows are built inline from `_row_core` and equal, bit for bit, those of
`cooperative_constraint` and `noncooperative_constraint` (kind="wall").
"""

from __future__ import annotations

import math

import numpy as np

from . import qp
from .barriers import LinearConstraint, ShieldParams, _row_core
from .dynamics import AgentState, WorldConfig, face_clearances

STATUS_PASSTHROUGH = "passthrough"
STATUS_CORRECTED = "corrected"
STATUS_RELAXED = "relaxed"
STATUS_FALLBACK = "fallback"


class ShieldReport:
    """What the filter did to one action, for per-step diagnostics streams (a slotted record)."""

    __slots__ = _fields = (
        "agent_id", "u_nominal", "u_safe", "constraints_built", "status", "min_h", "slack"
    )

    def __init__(self, agent_id, u_nominal, u_safe, constraints_built=None,
                 status=STATUS_PASSTHROUGH, min_h=math.inf, slack=0.0):
        self.agent_id, self.u_nominal, self.u_safe = agent_id, u_nominal, u_safe
        self.constraints_built = {} if constraints_built is None else constraints_built
        self.status, self.min_h, self.slack = status, min_h, slack

    __repr__ = qp._fields_repr


def neighborhood(self_id, all_agents, obstacles, world: WorldConfig, r_sense: float):
    """Entities within sensing range of one agent, in deterministic order.

    Returns (neighbors, obstacles_in_range, wall_faces_in_range); neighbors
    ascend by id, obstacles keep list order, wall faces keep the fixed face
    order. Distances are center-to-center and the comparison is inclusive.
    Faces are built only when half_extent - max(|x|, |y|) <= r_sense; outside
    or non-finite positions still reach face_clearances and raise.
    """
    self_state = None
    peers = []
    for aid, state in all_agents:
        if aid == self_id:
            self_state = state
        else:
            peers.append((aid, state))
    if self_state is None:
        raise ValueError(f"agent {self_id!r} not present in all_agents")
    if len(peers) > 1:
        peers.sort(key=lambda item: item[0])
    x, y = self_state.px, self_state.py
    neighbors = [(aid, st) for aid, st in peers if math.hypot(x - st.px, y - st.py) <= r_sense]
    obstacles_in_range = [obs for obs in obstacles if math.hypot(x - obs.px, y - obs.py) <= r_sense]
    e = world.wall_half_extent  # no face is nearer than e - max(|x|, |y|)
    wall_faces = []
    if not (e - abs(x) > r_sense and e - abs(y) > r_sense):
        wall_faces = [f for f in face_clearances((x, y), e) if f[2] <= r_sense]
    return neighbors, obstacles_in_range, wall_faces


def _brake_away(dpx, dpy, a_max):
    r = math.hypot(dpx, dpy)
    if r <= 1e-12:
        return np.array([a_max, 0.0])
    return np.array([a_max * dpx / r, a_max * dpy / r])


def filter_action(
    agent_id,
    u_nominal,
    self_state: AgentState,
    neighbors,
    obstacles,
    world: WorldConfig,
    params: ShieldParams,
) -> tuple[np.ndarray, ShieldReport]:
    """Filter one nominal action through the stacked-constraint QP.

    `neighbors` is the full (id, AgentState) list (the focal agent itself
    may be included and is skipped); range filtering happens here so the
    output provably depends only on local information.
    """
    u_hat = np.asarray(u_nominal, dtype=float).reshape(2)
    hx, hy = u_hat.tolist()
    if not (math.isfinite(hx) and math.isfinite(hy)):
        raise ValueError(f"nominal action must be finite, got {u_nominal!r}")

    agents = list(neighbors)
    if agent_id not in [aid for aid, _ in agents]:
        agents.append((agent_id, self_state))
    near_agents, near_obstacles, wall_faces = neighborhood(
        agent_id, agents, obstacles, world, params.r_sense
    )

    sx, sy, vx, vy = self_state.px, self_state.py, self_state.vx, self_state.vy
    gamma_non, a_self, d_s, margin = params.gamma_non, params.a_max_self, params.d_s, params.margin
    dacc_pair = a_self + params.a_max_other

    # (dpx, dpy, bound or None, h, kind, counterpart id) per in-range entity
    found = []
    for aid, other in near_agents:
        dpx, dpy = sx - other.px, sy - other.py
        full, h = _row_core(dpx, dpy, vx - other.vx, vy - other.vy, params.gamma_coo, dacc_pair, d_s, margin)
        if full is not None:
            full *= 0.5  # half the pairwise bound: the peer enforces the mirror half
        found.append((dpx, dpy, full, h, "cooperative", aid))
    for idx, obs in enumerate(near_obstacles):
        dpx, dpy = sx - obs.px, sy - obs.py
        full, h = _row_core(dpx, dpy, vx, vy, gamma_non, a_self, d_s + obs.radius, margin)
        found.append((dpx, dpy, full, h, "non-cooperative", ("obstacle", idx)))
    for face, (px, py), _ in wall_faces:
        # A face is a line, not a point: only the normal velocity component
        # matters, and feeding the full vector would credit motion along the
        # wall as curvature away from it. Work in the face-normal subspace.
        dpx, dpy = sx - px, sy - py
        nvx, nvy = (vx, 0.0) if face in ("+x", "-x") else (0.0, vy)
        full, h = _row_core(dpx, dpy, nvx, nvy, gamma_non, a_self, d_s, margin)
        found.append((dpx, dpy, full, h, "wall", ("wall", face)))

    # A violated entity (h <= 0 or inside the safe ball) has no barrier row;
    # dropping it would let an emergency for one entity ram another, so it
    # gets a recovery row demanding outward radial acceleration at the full
    # cap. The slack phase arbitrates when several emergencies conflict.
    constraints = []
    built = {"cooperative": 0, "non-cooperative": 0, "wall": 0}
    min_h = math.inf
    worst = None  # (threat value, dpx, dpy) of the most imminent violated entity
    for dpx, dpy, full, h, kind, cid in found:
        min_h = min(min_h, h)
        if full is None:
            if worst is None or h < worst[0]:
                worst = (h, dpx, dpy)
            r = math.hypot(dpx, dpy)
            if r <= 1e-9:
                continue
            # unit normal so simultaneous emergencies trade off evenly
            constraints.append(LinearConstraint((-dpx / r, -dpy / r), -a_self, kind, cid))
        else:
            constraints.append(LinearConstraint((-dpx, -dpy), full, kind, cid))
        built[kind] += 1

    # Violated-set fallback: swap the nominal for maximal braking away from
    # the most imminent violator; the recovery and surviving rows then shape
    # the executed action through the same projection.
    fallback = worst is not None
    nominal_used = _brake_away(worst[1], worst[2], a_self) if fallback else u_hat

    sol = qp.solve(qp.QpProblem(nominal_used, constraints, a_self, params.slack_weight))

    u_safe = sol.u_safe
    if fallback:
        status = STATUS_FALLBACK
    elif sol.status == qp.STATUS_RELAXED:
        status = STATUS_RELAXED
    else:
        status = STATUS_PASSTHROUGH if u_safe.tolist() == [hx, hy] else STATUS_CORRECTED

    return u_safe, ShieldReport(agent_id, u_hat, u_safe, built, status, min_h, sol.slack)

