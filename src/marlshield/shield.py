"""Per-agent safety filter around a nominal action.

For one focal agent the filter builds one linear row per entity it senses
(peers, obstacles, wall faces within sensing range), stacks them into a
single projection QP, and returns the filtered action plus a diagnostics
report. Stacking enforces membership in the intersection of all
per-entity safe sets, so one solve covers every nearby hazard at once. A
wall face's row is axis-aligned, so it reaches the QP as a bound: the
projection folds it into the action box as a limit on one action
component and never scans it; only the slack phase treats it as a row.

When any entity is already at or below the safe distance, or its barrier
value is nonpositive, no constraint exists for it; the filter then swaps
the nominal action for maximal braking away from the most imminent threat
(the entity with the smallest barrier value) and still projects that
braking through the surviving rows, so an emergency maneuver for one
entity cannot ram another.

`local_rows` is the one place rows are built: a single pass over peers,
obstacles and wall faces that applies the range rule, calls `_row_core`
once per in-range entity and appends that entity's row inline, except a
violated peer's or obstacle's recovery row, which `_recovery_row` adds.
Each row goes from there to `qp.QpProblem` as an `(ax, ay, b)` float
triple, peer and obstacle rows as constraints and face rows as bounds;
no per-row object is built.
`filter_action` adds the projection: the fallback nominal, one
`qp.solve`, the status and the `ShieldReport`.
"""

from __future__ import annotations

import math
from operator import itemgetter

import numpy as np

from . import qp
from .barriers import ShieldParams, _row_core
from .dynamics import AgentState, WorldConfig

STATUS_PASSTHROUGH = "passthrough"
STATUS_CORRECTED = "corrected"
STATUS_RELAXED = "relaxed"
STATUS_FALLBACK = "fallback"

_first = itemgetter(0)
_FLOAT64 = qp._FLOAT64


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


def local_rows(
    agent_id, self_state: AgentState, neighbors, obstacles, world: WorldConfig, params: ShieldParams
) -> tuple[list, list, dict, list, float]:
    """The focal agent's rows from what it senses: `(rows, bounds, built, violated, min_h)`.

    Entities are in range when their center-to-center distance is at most
    `r_sense` (inclusive). `neighbors` is the full (id, AgentState) list;
    entries with the focal agent's id are skipped and peers ascend by id.
    Obstacles keep list order and wall faces the fixed (+x, -x, +y, -y)
    order; faces are measured only when half_extent - max(|x|, |y|) <=
    r_sense, and outside or non-finite positions then raise ValueError.

    `rows` holds one `(ax, ay, b)` float triple per in-range peer and
    obstacle in that order, appended as it is built: the barrier row (a
    peer's with half the pairwise bound), or for a violated entity the
    unit recovery row of `_recovery_row` (none at zero offset).
    `bounds` holds one axis-aligned row per in-range face, the +x
    face's (e - x) * ux <= b say, for `qp.QpProblem` to fold into its box
    as ux <= b / (e - x); a violated face, even one the agent touches, has
    the unit recovery row ux <= -a_max_self, braking inward at the cap.
    `built` counts the rows and bounds by kind. `violated` lists
    `(h, dx, dy)` per violated entity in order, (dx, dy) the direction to
    brake along: the offset from the entity for peers and obstacles, the
    inward unit axis for faces. `min_h` is the smallest barrier value seen
    (inf when nothing is in range).
    """
    sx, sy, vx, vy = self_state.px, self_state.py, self_state.vx, self_state.vy
    gamma_non, a_self, d_s, margin = params.gamma_non, params.a_max_self, params.d_s, params.margin
    r_sense = params.r_sense
    hypot = math.hypot

    rows = []
    violated = []
    min_h = math.inf
    peers = []
    for aid, st in neighbors:  # a plain loop: a list comprehension costs a frame per call
        if aid != agent_id and hypot(sx - st.px, sy - st.py) <= r_sense:
            peers.append((aid, st))
    if len(peers) > 1:
        peers.sort(key=_first)
    dacc_pair = a_self + params.a_max_other
    # comparisons, not min(), on this hot path; a row is appended inline
    for _, other in peers:
        dpx, dpy = sx - other.px, sy - other.py
        full, h = _row_core(dpx, dpy, vx - other.vx, vy - other.vy, params.gamma_coo, dacc_pair, d_s, margin)
        if h < min_h:
            min_h = h
        if full is not None:
            # half the pairwise bound: the peer enforces the mirror half
            rows.append((-dpx, -dpy, full * 0.5))
        else:
            _recovery_row(rows, violated, h, dpx, dpy, a_self)
    n_peer = len(rows)
    for obs in obstacles:
        dpx, dpy = sx - obs.px, sy - obs.py
        if hypot(dpx, dpy) <= r_sense:
            full, h = _row_core(dpx, dpy, vx, vy, gamma_non, a_self, d_s + obs.radius, margin)
            if h < min_h:
                min_h = h
            if full is not None:
                rows.append((-dpx, -dpy, full))
            else:
                _recovery_row(rows, violated, h, dpx, dpy, a_self)
    bounds = []
    e = world.wall_half_extent  # no face is nearer than e - max(|x|, |y|)
    if not (e - abs(sx) > r_sense and e - abs(sy) > r_sense):
        if not (abs(sx) <= e and abs(sy) <= e):
            raise ValueError(f"position ({sx}, {sy}) is outside the wall square (half extent {e})")
        # Each face: the offset from it, the normal velocity (a face is a
        # line, not a point: the full vector would credit motion along the
        # wall as curvature away from it) and the inward unit axis.
        for dpx, dpy, wx, wy, nx, ny in (
            (sx - e, 0.0, vx, 0.0, -1.0, 0.0), (sx + e, 0.0, vx, 0.0, 1.0, 0.0),
            (0.0, sy - e, 0.0, vy, 0.0, -1.0), (0.0, sy + e, 0.0, vy, 0.0, 1.0),
        ):
            if abs(dpx + dpy) <= r_sense:
                full, h = _row_core(dpx, dpy, wx, wy, gamma_non, a_self, d_s, margin)
                if h < min_h:
                    min_h = h
                if full is None:
                    # violated, even on the face itself: brake inward at the cap
                    violated.append((h, nx, ny))
                    bounds.append((-nx, -ny, -a_self))
                else:
                    bounds.append((-dpx, -dpy, full))
    built = {"cooperative": n_peer, "non-cooperative": len(rows) - n_peer, "wall": len(bounds)}
    return rows, bounds, built, violated, min_h


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

    Takes the arguments of `local_rows` plus the nominal action, and
    projects it onto `local_rows`' peer and obstacle rows inside the action
    box [-a_max_self, a_max_self] per axis, narrowed by the face bounds.
    The rows apply its range rule, so the output provably depends only on
    local information.
    """
    u_hat = u_nominal
    if not (type(u_hat) is np.ndarray and u_hat.shape == (2,) and u_hat.dtype is _FLOAT64):
        u_hat = np.asarray(u_hat, dtype=float).reshape(2)
    hx, hy = u_hat.tolist()
    if not (math.isfinite(hx) and math.isfinite(hy)):
        raise ValueError(f"nominal action must be finite, got {u_nominal!r}")
    rows, bounds, built, violated, min_h = local_rows(agent_id, self_state, neighbors, obstacles, world, params)

    # Violated-set fallback: swap the nominal for maximal braking away from
    # the most imminent violator (the first with the smallest h); the
    # recovery and surviving rows then shape the executed action through
    # the same projection.
    a_self = params.a_max_self
    nominal_used = u_hat
    if violated:
        _, wx, wy = min(violated, key=_first)
        r = math.hypot(wx, wy)
        nominal_used = np.array([a_self * wx / r, a_self * wy / r] if r > 1e-12 else [a_self, 0.0])

    sol = qp.solve(qp.QpProblem(nominal_used, rows, a_self, params.slack_weight, bounds))

    u_safe = sol.u_safe
    if violated:
        status = STATUS_FALLBACK
    elif sol.status == qp.STATUS_RELAXED:
        status = STATUS_RELAXED
    else:
        status = STATUS_PASSTHROUGH if u_safe.tolist() == [hx, hy] else STATUS_CORRECTED

    return u_safe, ShieldReport(agent_id, u_hat, u_safe, built, status, min_h, sol.slack)


def _recovery_row(rows, violated, h, dpx, dpy, a_max):
    """Record a violated peer or obstacle at offset (dpx, dpy) and append its recovery row.

    A violated entity (h <= 0 or inside the safe ball) has no barrier row;
    dropping it would let an emergency for one entity ram another, so it
    goes into `violated` and gets a recovery row demanding outward radial
    acceleration at the full cap. The slack phase arbitrates conflicts.
    """
    violated.append((h, dpx, dpy))
    r = math.hypot(dpx, dpy)
    if r > 1e-9:
        # unit normal so simultaneous emergencies trade off evenly
        rows.append((-dpx / r, -dpy / r, -a_max))
