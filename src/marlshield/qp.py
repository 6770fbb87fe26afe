"""Minimal-interference projection of a nominal action onto stacked constraints.

The problem is tiny by construction — two action variables, a per-axis box,
and a handful of halfplane rows — so the solver enumerates KKT candidates
exactly rather than calling a general-purpose QP package. A Euclidean
projection onto a polyhedron lies on the affine hull of at most `dim`
independent active rows, so one finite scan finds it without iterating:
over the subsets of 1 to `dim` rows that hold a row violated at the point
projected, in `itertools.combinations` order, the first feasible candidate
with nonnegative multipliers wins, returned as computed with its rows.

1. Projection phase (`dim` 2) over `QpProblem.rows`: the constraints, then
   the four rows of the box limits with the axis-aligned `bounds` folded
   in. The box clip of the nominal comes first; then the scan gives the
   exact projection (status "optimal", slack 0), or nothing when the rows
   conflict.
2. Slack phase (`dim` 3) over `QpProblem.relaxed_rows`, only when the rows
   conflict. One shared slack s >= 0 relaxes the constraints and bounds
   (a.u <= b + s) under a quadratic penalty, which is always solvable, and
   the box stays hard; status "relaxed" reports the safety-margin erosion
   instead of crashing. The scan projects (nominal, 0) in (u, s*sqrt(2w)).

A row whose normal has |a|^2 <= 1e-12 gives no one-row candidate in either
phase. `kkt_check` is the one certificate, for both phases under one
multiplier-normalized rule; `solve` never runs it, reading
`QpSolution.kkt_residual` does, and neither uses numpy linear algebra.
`QpSolution.iterations` counts the candidates evaluated (pruned subsets do
not count); it is 0 exactly when the box clip of the nominal is returned.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import attrgetter

import numpy as np

STATUS_OPTIMAL = "optimal"
STATUS_RELAXED = "relaxed"

_FEAS_TOL = 1e-9
_FLOAT64 = np.dtype(np.float64)
_ZERO_TOL = 1e-12
_REAL = (int, float, np.integer, np.floating)  # numbers.Real's ABC check costs ~0.4 µs a call


def _fields_repr(obj) -> str:
    fields = ", ".join(f"{name}={getattr(obj, name)!r}" for name in obj._fields)
    return f"{type(obj).__name__}({fields})"


def _floats(*values):
    """The values as floats, or ValueError unless each is a real number."""
    if not all(isinstance(v, _REAL) for v in values):
        raise ValueError
    return tuple(map(float, values))


@functools.lru_cache(maxsize=8)
def _box_rows(b):
    """The +x, -x, +y, -y rows of the box [-b, b] per axis and its limits, built once per box."""
    return ((1.0, 0.0, b), (-1.0, 0.0, b), (0.0, 1.0, b), (0.0, -1.0, b)), (-b, b, -b, b)


class QpProblem:
    """Projection instance: nominal action, halfplane rows, symmetric action box, slack penalty, axis rows.

    `constraints` are rows ax*ux + ay*uy <= b as `(ax, ay, b)` triples (as
    `shield.local_rows` builds them), each validated once: 3 finite real
    numbers, (ax, ay) nonzero, or ValueError. They are kept as float
    triples. `box`, a positive finite scalar, bounds each action component
    to [-box, box] and is hard in both phases.

    `bounds` are axis-aligned rows, `(ax, 0, b)` or `(0, ay, b)`, validated
    like `constraints` with exactly one coefficient nonzero. The projection
    phase folds each into the box as ux <= b/ax (ax > 0) or ux >= b/ax
    (ax < 0), so it never scans them; `limits` reads the folded intervals
    `(lo_x, hi_x, lo_y, hi_y)`, and an empty one means the rows conflict.
    The slack phase relaxes them as rows, with the constraints.

    `rows`, the projection phase's list, is `constraints` followed by the
    +x, -x, +y, -y rows of `limits`; `relaxed_rows`, the slack phase's, is
    `constraints`, `bounds`, then the rows of `box` (the same list when
    there are no bounds). Active sets and KKT checks index the list of
    their phase; the slack nonnegativity row of the relaxed phase sits one
    past its last row. Fields are read-only.
    """

    __slots__ = ("_nominal", "_constraints", "_box", "_slack_weight", "_bounds", "_rows", "_limits")
    _fields = ("nominal", "constraints", "box", "slack_weight", "bounds")
    nominal, constraints, box, slack_weight, bounds, rows, limits = (property(attrgetter(n)) for n in __slots__[:7])

    def __init__(self, nominal, constraints=(), box=1.0, slack_weight=1e6, bounds=()):
        # A Python int beyond the float range raises OverflowError wherever it
        # meets a float; it is not finite, so it gets the ValueError of its slot.
        u = nominal
        if not (type(u) is np.ndarray and u.shape == (2,) and u.dtype is _FLOAT64):
            try:
                u = np.asarray(u, dtype=float).reshape(2)
            except OverflowError:
                u = np.full(2, math.inf)
        hx, hy = u.tolist()
        if not (math.isfinite(hx) and math.isfinite(hy)):
            raise ValueError(f"nominal action must be finite, got {nominal!r}")
        try:
            if not ((type(box) is float or isinstance(box, _REAL)) and math.isfinite(box) and box > 0):
                raise ValueError
        except (ValueError, OverflowError):
            raise ValueError("box must be a positive finite scalar") from None
        try:
            if not ((type(slack_weight) is float or isinstance(slack_weight, _REAL))
                    and math.isfinite(slack_weight) and slack_weight >= 0):
                raise ValueError
        except (ValueError, OverflowError):
            raise ValueError("slack_weight must be >= 0") from None
        # One finiteness test per row, no calls: 0*ax + 0*ay + 0*b is a signed
        # zero when all three are finite and NaN when any is not (0*inf is NaN),
        # and it never overflows.
        cons = list(constraints)
        for i, row in enumerate(cons):
            try:
                ax, ay, b = row
                if not (type(row) is tuple and type(ax) is type(ay) is type(b) is float):
                    ax, ay, b = cons[i] = _floats(ax, ay, b)
                if not (0.0 * ax + 0.0 * ay + 0.0 * b == 0.0 and (ax != 0.0 or ay != 0.0)):
                    raise ValueError
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"constraint row {row!r} is not a finite (ax, ay, b) with (ax, ay) != 0") from None
        self._nominal, self._constraints, self._box, self._slack_weight = u, tuple(cons), box, slack_weight
        if bounds:
            hix = hiy = float(box)
            lox = loy = -hix
            bnds = list(bounds)
            for i, row in enumerate(bnds):
                try:
                    ax, ay, b = row
                    if not (type(row) is tuple and type(ax) is type(ay) is type(b) is float):
                        ax, ay, b = bnds[i] = _floats(ax, ay, b)
                    if not (0.0 * ax + 0.0 * ay + 0.0 * b == 0.0 and (ax == 0.0) != (ay == 0.0)):
                        raise ValueError
                except (TypeError, ValueError, OverflowError):
                    raise ValueError(f"bound row {row!r} is not a finite (ax, ay, b) with one of ax, ay zero") from None
                # fold it into the box; conditionals, not min/max, on this hot path
                if ay == 0.0:
                    v = b / ax
                    if ax > 0.0:
                        hix = v if v < hix else hix
                    elif v > lox:
                        lox = v
                else:
                    v = b / ay
                    if ay > 0.0:
                        hiy = v if v < hiy else hiy
                    elif v > loy:
                        loy = v
            self._bounds = tuple(bnds)
            self._limits = lox, hix, loy, hiy
            box_rows = (1.0, 0.0, hix), (-1.0, 0.0, -lox), (0.0, 1.0, hiy), (0.0, -1.0, -loy)
        else:
            self._bounds = ()
            box_rows, self._limits = _box_rows(float(box))
        self._rows = self._constraints + box_rows

    @property
    def relaxed_rows(self) -> tuple:
        if not self._bounds:
            return self._rows
        return self._constraints + self._bounds + _box_rows(float(self._box))[0]

    __repr__ = _fields_repr


class QpSolution:
    """Solver output: action, shared slack, active rows, problem, status, candidates.

    `kkt_residual` runs `kkt_check(problem, self)` on each read; `solve` never does.
    """

    __slots__ = ("u_safe", "slack", "active_set", "problem", "status", "iterations")
    _fields = ("u_safe", "slack", "active_set", "kkt_residual", "status", "iterations")

    def __init__(self, u_safe, slack, active_set, problem, status, iterations=0):
        self.u_safe, self.slack, self.active_set = u_safe, slack, active_set
        self.problem, self.status, self.iterations = problem, status, iterations

    @property
    def kkt_residual(self) -> float:
        return kkt_check(self.problem, self)

    __repr__ = _fields_repr


def _box_clip(hx, hy, limits, m):
    """The nominal clipped to the box limits, and the box rows the clip binds (+x, -x, +y, -y are m..m+3)."""
    lox, hix, loy, hiy = limits
    # conditionals, not min/max: the builtins cost several times more on this hot path
    cx = hx if lox <= hx <= hix else (hix if hx > hix else lox)
    cy = hy if loy <= hy <= hiy else (hiy if hy > hiy else loy)
    active = (m if hx > hix else m + 1,) if cx != hx else ()
    if cy != hy:
        active += (m + 2 if hy > hiy else m + 3,)
    return (cx, cy), active


@functools.lru_cache(maxsize=32)
def _pairs_then_triples(n):
    """The 2- then 3-row subsets of n rows in `itertools.combinations` order, as (i, j, k); a pair has k = -1."""
    pairs = tuple((i, j, -1) for i, j in itertools.combinations(range(n), 2))
    return pairs + tuple(itertools.combinations(range(n), 3))


def _scan(rows, hx, hy, flat):
    """The projection of c onto `rows` among subsets of 1 to dim rows holding a row violated at c.

    `flat`: two variables, c = (hx, hy), rows (ax, ay, b); else three,
    c = (hx, hy, 0), rows (ax, ay, az, b). At the projection z,
    c - z = sum(l_i * a_i) with l >= 0, so sum(l_i * (a_i.c - b_i)) =
    |c - z|^2 > 0 when c is infeasible. Returns (z in dim coordinates,
    active rows, candidates tried), or None when no candidate qualifies.
    """
    # Each candidate is tested against every row in a plain loop, inline: a
    # helper, or all() over a generator, would cost a frame per candidate.
    # One row: the projection onto its plane, optimal when feasible; a normal
    # with |a|^2 <= _ZERO_TOL gives NaNs, which fail every comparison.
    hots, tried = [], 0  # the violated rows, each of whose candidates failed
    if flat:
        for i, (ax, ay, b) in enumerate(rows):
            v = ax * hx + ay * hy - b
            if v <= 0.0:
                continue
            # a NaN v (terms beyond the float range) is tried here and fails,
            # but holds no violated row for the pairs
            tried += 1
            rr = ax * ax + ay * ay
            lam = v / (rr if rr > _ZERO_TOL else math.nan)
            x, y = hx - lam * ax, hy - lam * ay
            for ax, ay, b in rows:
                if not ax * x + ay * y <= b + _FEAS_TOL:
                    break
            else:
                return (x, y), (i,), tried
            if v > 0.0:
                hots.append(i)
    else:
        for i, (ax, ay, az, b) in enumerate(rows):
            v = ax * hx + ay * hy - b
            if v > 0.0:
                tried += 1
                rr = ax * ax + ay * ay + az * az
                lam = v / (rr if rr > _ZERO_TOL else math.nan)
                x, y, t = hx - lam * ax, hy - lam * ay, -lam * az
                for ax, ay, az, b in rows:
                    if not ax * x + ay * y + az * t <= b + _FEAS_TOL:
                        break
                else:
                    return (x, y, t), (i,), tried
                hots.append(i)
    n = len(rows)

    if flat:
        # two rows in two variables: their vertex, in closed form
        for i, (a1x, a1y, b1) in enumerate(rows):
            hot = i in hots
            for j in range(i + 1, n):
                if not (hot or j in hots):
                    continue
                tried += 1
                a2x, a2y, b2 = rows[j]
                det = a1x * a2y - a1y * a2x
                if abs(det) <= _ZERO_TOL:
                    continue
                x, y = (b1 * a2y - a1y * b2) / det, (a1x * b2 - b1 * a2x) / det
                gx, gy = hx - x, hy - y
                if not ((gx * a2y - gy * a2x) / det >= -1e-10 and (a1x * gy - a1y * gx) / det >= -1e-10):
                    continue
                for ax, ay, b in rows:
                    if not ax * x + ay * y <= b + _FEAS_TOL:
                        break
                else:
                    return (x, y), (i, j), tried
        return None

    # Two or three rows p, q, r in three variables: their vertex by Cramer's
    # rule (adjugate columns q x r, r x p, p x q), which keeps the rows'
    # conditioning where normal equations would square it; dependent rows
    # give NaNs. A pair's r is its unit line direction pinned at c, so the
    # vertex is the projection of c onto the line; r has no multiplier.
    for i, j, k in _pairs_then_triples(n):
        if not (i in hots or j in hots or k in hots):
            continue
        tried += 1
        px, py, pz, pb = rows[i]
        qx, qy, qz, qb = rows[j]
        wx, wy, wz = py * qz - pz * qy, pz * qx - px * qz, px * qy - py * qx
        if k < 0:
            norm = math.sqrt(wx * wx + wy * wy + wz * wz) or math.nan
            rx, ry, rz = wx / norm, wy / norm, wz / norm
            rb = rx * hx + ry * hy
        else:
            rx, ry, rz, rb = rows[k]
        ux, uy, uz = qy * rz - qz * ry, qz * rx - qx * rz, qx * ry - qy * rx
        vx, vy, vz = ry * pz - rz * py, rz * px - rx * pz, rx * py - ry * px
        det = px * ux + py * uy + pz * uz
        det = det if abs(det) > _ZERO_TOL else math.nan
        x = (pb * ux + qb * vx + rb * wx) / det
        y = (pb * uy + qb * vy + rb * wy) / det
        t = (pb * uz + qb * vz + rb * wz) / det
        gx, gy, gz = hx - x, hy - y, 0.0 - t
        l1, l2 = (ux * gx + uy * gy + uz * gz) / det, (vx * gx + vy * gy + vz * gz) / det
        l3 = (wx * gx + wy * gy + wz * gz) / det if k >= 0 else 0.0
        if not (l1 >= -1e-10 and l2 >= -1e-10 and l3 >= -1e-10):
            continue
        for ax, ay, az, b in rows:
            if not ax * x + ay * y + az * t <= b + _FEAS_TOL:
                break
        else:
            return (x, y, t), (i, j) if k < 0 else (i, j, k), tried
    return None


def _solve_projection(problem: QpProblem):
    """Phase 1: ((x, y), active rows, candidates) of the projection onto rows + box; None when rows conflict."""
    hx, hy = problem.nominal.tolist()
    lox, hix, loy, hiy = limits = problem.limits
    if lox > hix or loy > hiy:
        return None  # the bounds leave no action in the box
    rows = problem.rows
    m = len(rows) - 4

    # Fast path: the box clip of the nominal already satisfies every row.
    # An inactive clip returns the nominal bit-exactly; an active clip is
    # the projection onto the box and a fortiori onto the region inside it.
    # It meets the four limit rows that close `rows` exactly (each is +-1
    # times one component against a limit), so only the constraints are checked.
    (cx, cy), active = _box_clip(hx, hy, limits, m)
    for ax, ay, b in rows[:m]:
        if not ax * cx + ay * cy <= b:
            break
    else:
        return (cx, cy), active, 0
    return _scan(rows, hx, hy, True)


def _solve_relaxed(problem: QpProblem):
    """Phase 2: shared-slack relaxation over `problem.relaxed_rows`; ((x, y, s), active rows, candidates).

    The slack is rescaled by sqrt(2w), so the objective is a Euclidean
    projection of c = (nominal, 0) in three variables, well conditioned at
    any penalty. The s >= 0 row is left out: the rows conflict, so s > 0.
    """
    hx, hy = problem.nominal.tolist()
    w = float(problem.slack_weight)
    m = len(problem.constraints) + len(problem.bounds)
    base = problem.relaxed_rows

    if w == 0.0:
        # Penalty-free slack absorbs every row; only the box binds the action,
        # read back from the box rows that close `relaxed_rows`.
        (_, _, hix), (_, _, nlox), (_, _, hiy), (_, _, nloy) = base[m:]
        (ux, uy), active = _box_clip(hx, hy, (-nlox, hix, -nloy, hiy), m)
        return (ux, uy, max(0.0, max(ax * ux + ay * uy - b for ax, ay, b in base[:m]))), active, 0

    scale = math.sqrt(2.0 * w)  # the third variable holds s * scale
    sz = -1.0 / scale
    result = _scan([(ax, ay, sz if i < m else 0.0, b) for i, (ax, ay, b) in enumerate(base)], hx, hy, False)
    if result is None:
        raise RuntimeError("no KKT point among the relaxed candidates")
    (x, y, t), active, tried = result
    return (x, y, t / scale), active, tried


def solve(problem: QpProblem) -> QpSolution:
    """Project the nominal action onto the stacked constraints.

    Returns the exact projection (status "optimal", slack 0) whenever the
    rows and box admit any action; otherwise minimizes the quadratic slack
    penalty (status "relaxed"). The solve does no certificate work: the
    solution's `kkt_residual` runs `kkt_check` when it is read.
    """
    result = _solve_projection(problem)
    if result is None:
        (ux, uy, s), active, iters = _solve_relaxed(problem)
        status, s = STATUS_RELAXED, max(s, 0.0)
    else:
        (ux, uy), active, iters = result
        status, s = STATUS_OPTIMAL, 0.0
    return QpSolution(np.array([ux, uy]), s, active, problem, status, iters)


def _cross(p, q):
    return p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0]


def _dot(p, q):
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def kkt_check(problem: QpProblem, solution: QpSolution) -> float:
    """Max of the stationarity, feasibility, dual, and complementarity residuals.

    Multipliers are reconstructed from the solution's active set alone;
    dependent active rows read inf. Stationarity and complementarity are
    divided by 1 + max|multiplier|, so a vertex of nearly parallel rows or a
    large slack weight, whose multipliers are large, is judged by its
    constraint residuals; primal and dual feasibility stay absolute. A
    nominal returned untouched reads exactly 0.
    """
    ux, uy = float(solution.u_safe[0]), float(solution.u_safe[1])
    s, active = float(solution.slack), solution.active_set
    hx, hy = problem.nominal.tolist()
    # Variables (u, s), gradient g = (u - nominal, 2*w*s). An optimal
    # solution's rows read a.u <= b with s = 0; a relaxed one's read
    # a.u - s <= b for the constraints and bounds, a.u <= b for the box, and
    # the row past them -s <= 0.
    if solution.status == STATUS_OPTIMAL:
        rows = [(ax, ay, 0.0, b) for ax, ay, b in problem.rows]
    else:
        m = len(problem.constraints) + len(problem.bounds)
        rows = [(ax, ay, -1.0 if i < m else 0.0, b) for i, (ax, ay, b) in enumerate(problem.relaxed_rows)]
        rows.append((0.0, 0.0, -1.0, 0.0))
    g = (ux - hx, uy - hy, 2.0 * float(problem.slack_weight) * s)
    primal = max(0.0, max(ax * ux + ay * uy + az * s - b for ax, ay, az, b in rows))

    # Least-squares multipliers of g + sum(lam_i * a_i) = 0 in closed form:
    # Cramer's rule on three rows, or on a pair and its unit normal, whose
    # multiplier is dropped (g's part along it is the residual).
    a = [rows[i] for i in active]
    gaps = [b - ax * ux - ay * uy - az * s for ax, ay, az, b in a]
    if len(a) == 2:
        n = _cross(a[0], a[1])
        norm = math.hypot(*n)
        if norm <= _ZERO_TOL:
            return math.inf
        a.append((n[0] / norm, n[1] / norm, n[2] / norm))
    if len(a) == 3:
        adj = _cross(a[1], a[2]), _cross(a[2], a[0]), _cross(a[0], a[1])
        det = _dot(a[0], adj[0])
        if abs(det) <= _ZERO_TOL:
            return math.inf
        lam = [-_dot(g, col) / det for col in adj[: len(active)]]
    elif len(a) > 3:
        return math.inf  # more than three rows in three variables
    else:
        lam = [-_dot(ai, g) / _dot(ai, ai) for ai in a]
    r = g
    for l, (ax, ay, az, _) in zip(lam, a):
        r = (r[0] + l * ax, r[1] + l * ay, r[2] + l * az)

    denom = 1.0 + max(map(abs, lam), default=0.0)
    stationarity = max(map(abs, r)) / denom
    dual = max(0.0, -min(lam, default=0.0))
    comp = max((abs(l * gap) for l, gap in zip(lam, gaps)), default=0.0) / denom
    return max(stationarity, primal, dual, comp)
