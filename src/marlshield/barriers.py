"""Braking-distance barrier functions and the linear action constraints they induce.

Two barrier flavors cover one focal agent against one counterpart:

* cooperative — the counterpart is another shielded agent and contributes
  its share of the avoidance effort, so the combined braking authority is
  the sum of both acceleration caps and the emitted bound is split in half
  (each side enforces its half; the pair of halves implies the joint
  condition).
* non-cooperative — the counterpart is inert (obstacle, wall point), so
  only the focal agent's braking authority counts and the full bound lands
  on the focal agent.

Barrier value h > 0 means the pair is inside the safe set: the radial
closing speed is below what maximal braking can absorb over the remaining
separation. The reciprocal barrier B = 1/h satisfies the usual controlled
growth condition exactly when the emitted linear constraint on the focal
acceleration holds; `cbf_condition_residual` exposes that condition for
verification. `_row_core` computes one such row, and `shield.local_rows`
builds each agent's rows from it.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

# Separation-above-safe-distance floor applied inside bound computations;
# the sqrt term's slope diverges at the boundary and this keeps bounds finite.
GAP_FLOOR = 1e-6


class InsideUnsafeBall(ValueError):
    """Separation at or below the safe distance: the barrier is undefined there."""


@dataclass(frozen=True)
class ShieldParams:
    """Tunables shared by constraint construction and the shield QP.

    The sensing radius must cover the worst-case braking distance or the
    barrier math is moot: two agents meeting head-on at diagonal top speed
    v_max*sqrt(2) each close at up to 2*sqrt(2)*v_max, needing
    (2*sqrt(2))^2/(2*(a_self+a_other)) = 2.0 world units to stop (at unit
    caps), plus one control interval of blind approach. The default 2.5
    covers that with room to spare.

    `margin` guards the sampled-data gap: rate conditions hold only at the
    control instants, and between them the separation can slip by up to
    about a_max*dt^2 plus curvature terms. Bounds are therefore computed
    as if the safe distance were d_s + margin; triggers, rewards, and
    metrics keep the true d_s.

    Every field must be finite, and `a_max_self`, the QP's action box,
    must be positive; ValueError otherwise.
    """

    d_s: float = 0.075
    a_max_self: float = 1.0
    a_max_other: float = 1.0
    gamma_coo: float = 0.5
    gamma_non: float = 0.5
    r_sense: float = 2.5
    slack_weight: float = 1e6
    margin: float = 0.02

    def __post_init__(self):
        if not all(math.isfinite(v) for v in astuple(self)):
            raise ValueError(f"shield parameters must be finite, got {self!r}")
        if not self.d_s > 0:
            raise ValueError("d_s must be > 0")
        if not self.a_max_self > 0:
            raise ValueError("a_max_self must be > 0: it is the QP's action box")
        if self.a_max_other < 0:
            raise ValueError("a_max_other must be >= 0")
        if not (self.gamma_coo > 0 and self.gamma_non > 0):
            raise ValueError("gamma values must be > 0")
        if not self.r_sense > self.d_s:
            raise ValueError("r_sense must exceed d_s")
        if self.slack_weight < 0:
            raise ValueError("slack_weight must be >= 0")
        if self.margin < 0:
            raise ValueError("margin must be >= 0")


def _pair(v, name: str) -> tuple[float, float]:
    x, y = float(v[0]), float(v[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"{name} must be finite, got {v!r}")
    return x, y


def h_cooperative(dp, dv, params: ShieldParams) -> float:
    """Barrier value for a mutually avoiding pair at relative state (dp, dv).

    Radial closing speed plus the braking margin sqrt(2*(sum of caps)*(r - d_s)).
    Raises InsideUnsafeBall when |dp| <= d_s.
    """
    dpx, dpy = _pair(dp, "dp")
    dvx, dvy = _pair(dv, "dv")
    r = math.hypot(dpx, dpy)
    if r <= params.d_s:
        raise InsideUnsafeBall(f"separation {r:.6g} <= d_s {params.d_s:.6g}")
    dacc = params.a_max_self + params.a_max_other
    return (dpx * dvx + dpy * dvy) / r + math.sqrt(2.0 * dacc * (r - params.d_s))


def h_noncooperative(dp, v_self, params: ShieldParams) -> float:
    """Barrier value against an inert counterpart: only the focal agent brakes."""
    dpx, dpy = _pair(dp, "dp")
    vx, vy = _pair(v_self, "v_self")
    r = math.hypot(dpx, dpy)
    if r <= params.d_s:
        raise InsideUnsafeBall(f"separation {r:.6g} <= d_s {params.d_s:.6g}")
    return (dpx * vx + dpy * vy) / r + math.sqrt(2.0 * params.a_max_self * (r - params.d_s))


def h_rate(dp, w, du, dacc: float, d_s: float) -> float:
    """Analytic time derivative of the barrier value along the pair dynamics.

    dp is the position difference, w the matching velocity term (dv for the
    cooperative pair, the focal velocity for an inert counterpart), du the
    matching acceleration term (relative acceleration, or the focal agent's
    acceleration), dacc the braking authority that appears inside the sqrt.
    """
    dpx, dpy = _pair(dp, "dp")
    wx, wy = _pair(w, "w")
    ux, uy = _pair(du, "du")
    r = math.hypot(dpx, dpy)
    gap = r - d_s
    if gap <= 0:
        raise InsideUnsafeBall(f"separation {r:.6g} <= d_s {d_s:.6g}")
    sigma = dpx * wx + dpy * wy
    w2 = wx * wx + wy * wy
    dpdu = dpx * ux + dpy * uy
    return (w2 + dpdu) / r - sigma * sigma / r**3 + dacc * sigma / (r * math.sqrt(2.0 * dacc * gap))


def _row_core(dpx, dpy, wx, wy, gamma, dacc, d_s_true, margin):
    """(bound, h) of one barrier row, or (None, h) when the shield must brake.

    h here is the guarded barrier value: computed against the margin-shifted
    safe distance outside the guard band, against the true one inside it,
    and extended with a signed braking term below the boundary so callers
    can rank violated entities.

    Inside the band the positive credit terms of the bound (tangential
    curvature w^2 and the recession credit dacc*sigma/sqrt(2*dacc*gap)) are
    capped at zero: the recession term has an unbounded slope at the
    boundary and the curvature credit assumes continuous re-evaluation, so
    a zero-order-hold controller cannot bank either for a whole step.
    Negative contributions (braking demands) always survive.
    """
    r = math.hypot(dpx, dpy)
    radial = (dpx * wx + dpy * wy) / r if r > 0.0 else 0.0
    gap_true = r - d_s_true
    if gap_true <= 0.0:
        return None, radial - math.sqrt(-2.0 * dacc * gap_true)
    in_band = gap_true - margin <= GAP_FLOOR
    gap = gap_true if in_band else gap_true - margin
    gap = GAP_FLOOR if GAP_FLOOR > gap else gap  # max(gap, GAP_FLOOR) without the builtin call
    brake = math.sqrt(2.0 * dacc * gap)
    h = radial + brake
    if h <= 0.0:
        return None, h
    sigma = radial * r
    w2 = wx * wx + wy * wy
    credit = w2 + dacc * sigma / brake
    if in_band and credit > 0.0:
        credit = 0.0
    return gamma * h * h * h * r - sigma * sigma / (r * r) + credit, h


def cbf_condition_residual(h_value: float, h_dot: float, gamma: float) -> float:
    """Controlled-growth residual of the reciprocal barrier B = 1/h.

    Returns Bdot - gamma/B expressed in h: (-h_dot/h^2) - gamma*h.
    Nonpositive exactly when the barrier condition holds.
    """
    if not h_value > 0:
        raise ValueError(f"residual requires h > 0, got {h_value!r}")
    return -h_dot / (h_value * h_value) - gamma * h_value
