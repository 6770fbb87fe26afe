"""Minimal-interference projection of a nominal action onto stacked constraints.

The problem is tiny by construction — two action variables, a per-axis box,
and a handful of halfplane rows — so the solver enumerates KKT candidates
exactly rather than calling a general-purpose QP package. A Euclidean
projection onto a polyhedron lies on the affine hull of at most `dim`
independent active rows, so a finite candidate scan finds it without
iterating.

Two phases:

1. Projection phase. If the unrelaxed feasible set (rows + box) is
   nonempty, return the exact Euclidean projection of the nominal action
   onto it (status "optimal", slack 0). Candidates: the box clip of the
   nominal (checked against the constraint rows only, since the clip lies
   within the box limits and so meets their four rows by construction),
   the projection onto each violated row, then each pairwise
   vertex with at least one row violated at the nominal (no other vertex
   can be the projection); the first feasible one with nonnegative
   multipliers wins and is reported with the row or pair the scan
   accepted, even where 3+ rows meet at it. When none qualifies the set
   is empty.
2. Slack phase. Only when the rows conflict outright, one shared
   nonnegative slack s relaxes every row (a.u <= b + s) under a quadratic
   penalty, which is always solvable; status "relaxed" reports the
   safety-margin erosion instead of crashing. The same pruned scan runs in
   the three variables (u, s*sqrt(2w)): the projection onto each violated
   row, onto the line of each pair, then each vertex of three rows, every
   subset holding a row violated at the nominal. The winning candidate is
   returned as computed; the solve path uses no numpy linear algebra.

`QpProblem` takes its rows as `(ax, ay, b)` float triples, a symmetric
box and axis-aligned rows as `bounds`, and validates them once. The
projection phase folds the bounds into per-axis limits of the box (an
interval may then exclude 0), so it scans only the constraints and the
four rows of those limits; the slack phase relaxes the bounds
as rows with the constraints, under the box, which is hard in both
phases. Each phase and `kkt_check` read one row list. `kkt_check` is the
one certificate, for both phases under one multiplier-normalized rule:
`solve` never runs it, reading `QpSolution.kkt_residual` does.
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
        u = nominal
        if not (type(u) is np.ndarray and u.shape == (2,) and u.dtype is _FLOAT64):
            u = np.asarray(u, dtype=float).reshape(2)
        hx, hy = u.tolist()
        if not (math.isfinite(hx) and math.isfinite(hy)):
            raise ValueError(f"nominal action must be finite, got {nominal!r}")
        if not ((type(box) is float or isinstance(box, _REAL)) and math.isfinite(box) and box > 0):
            raise ValueError("box must be a positive finite scalar")
        if not (
            (type(slack_weight) is float or isinstance(slack_weight, _REAL))
            and math.isfinite(slack_weight) and slack_weight >= 0
        ):
            raise ValueError("slack_weight must be >= 0")
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
            except (TypeError, ValueError):
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
                except (TypeError, ValueError):
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


def _feasible(rows, x, y) -> bool:
    # a plain loop: all() over a generator costs a frame per call
    for ax, ay, b in rows:
        if not ax * x + ay * y <= b + _FEAS_TOL:
            return False
    return True


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


def _solve_projection(problem: QpProblem):
    """Phase 1: exact projection onto rows + box; None when rows conflict.

    Returns ((x, y), active rows, candidates evaluated); the active rows
    are the clip's box rows, the violated row or the pair the scan accepted.
    """
    hx, hy = problem.nominal.tolist()
    lox, hix, loy, hiy = limits = problem.limits
    if lox > hix or loy > hiy:
        return None  # the bounds leave no action in the box
    rows = problem.rows
    n = len(rows)
    m = n - 4

    # Fast path: the box clip of the nominal already satisfies every row.
    # An inactive clip returns the nominal bit-exactly; an active clip is
    # the projection onto the box and a fortiori onto the region inside it.
    # Only the constraint rows are checked: the clip lies within `limits`,
    # so it meets the four limit rows that close `rows` exactly (each is
    # +-1 times one component against a limit, with a 0 coefficient on
    # the other).
    (cx, cy), active = _box_clip(hx, hy, limits, m)
    for ax, ay, b in rows[:m]:
        if not ax * cx + ay * cy <= b:
            break
    else:
        return (cx, cy), active, 0

    # A feasible projection onto one violated row is optimal: the polygon
    # lies inside that row's halfplane.
    tried = 0
    violated = []
    for i, (ax, ay, b) in enumerate(rows):
        v = ax * hx + ay * hy - b
        violated.append(v > 0.0)
        if v <= 0.0:
            continue
        tried += 1
        t = v / (ax * ax + ay * ay)
        zx, zy = hx - t * ax, hy - t * ay
        if _feasible(rows, zx, zy):
            return (zx, zy), (i,), tried

    # Otherwise two independent rows are active at the projection. A feasible
    # vertex whose multipliers are nonnegative satisfies KKT; checking the
    # sign matters because three or more rows often meet at one vertex.
    # At such a vertex z, h - z = l1*a1 + l2*a2 with l >= 0, so
    # l1*(a1.h - b1) + l2*(a2.h - b2) = |h - z|^2 > 0: one of the two rows
    # is violated at the nominal h, and pairs of satisfied rows are skipped.
    for i, (a1x, a1y, b1) in enumerate(rows):
        hot = violated[i]
        for j in range(i + 1, n):
            if not (hot or violated[j]):
                continue
            a2x, a2y, b2 = rows[j]
            tried += 1
            det = a1x * a2y - a1y * a2x
            if abs(det) <= _ZERO_TOL:
                continue
            zx, zy = (b1 * a2y - a1y * b2) / det, (a1x * b2 - b1 * a2x) / det
            gx, gy = hx - zx, hy - zy
            if (
                (gx * a2y - gy * a2x) / det >= -1e-10
                and (a1x * gy - a1y * gx) / det >= -1e-10
                and _feasible(rows, zx, zy)
            ):
                return (zx, zy), (i, j), tried
    return None


def _cramer(p, q, r, c):
    """The point z where rows p, q, r, each (ax, ay, az, b), hold with equality; (z, multipliers of c - z).

    Cramer's rule, whose adjugate columns are cross products of the rows,
    keeps their conditioning; normal equations would square it, which the
    tiny slack column cannot afford. Dependent rows (|det| <= _ZERO_TOL)
    give NaNs, which fail every comparison.
    """
    (px, py, pz, pb), (qx, qy, qz, qb), (rx, ry, rz, rb) = p, q, r
    adj = (
        (qy * rz - qz * ry, qz * rx - qx * rz, qx * ry - qy * rx),
        (ry * pz - rz * py, rz * px - rx * pz, rx * py - ry * px),
        (py * qz - pz * qy, pz * qx - px * qz, px * qy - py * qx),
    )
    det = px * adj[0][0] + py * adj[0][1] + pz * adj[0][2]
    det = det if abs(det) > _ZERO_TOL else math.nan
    z = [(pb * a0 + qb * a1 + rb * a2) / det for a0, a1, a2 in zip(*adj)]
    gx, gy, gz = c[0] - z[0], c[1] - z[1], c[2] - z[2]
    return z, [(ax * gx + ay * gy + az * gz) / det for ax, ay, az in adj]


def _solve_relaxed(problem: QpProblem):
    """Phase 2: shared-slack relaxation, always feasible; phase 1's scan in three variables.

    The slack variable is rescaled by sqrt(2w) so the objective becomes a
    pure Euclidean projection of c = (nominal, 0) in three variables
    (identity Hessian), which stays well conditioned for arbitrarily large
    penalties. The optimum lies on at most three independent active rows,
    so the projections onto one row, onto the line of two rows, then the
    vertices of three rows are scanned, and the first candidate that is
    feasible with nonnegative multipliers is the optimum, returned as the
    scan computed it. The s >= 0 row is left out: this phase runs only when
    the rows conflict, so s > 0.

    The rows are `problem.relaxed_rows`: the bounds come back as rows, and
    only the box stays hard. Only subsets holding a row violated at c (as
    c's slack is 0) are tried. At the optimum z, c - z = sum(l_i * r_i) with
    l >= 0, so sum(l_i * (r_i.c - b_i)) = |c - z|^2 > 0, because c is
    infeasible when the rows conflict: some active row is violated at c.
    Returns ((x, y, s), active rows, candidates evaluated).
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
    rows = [(ax, ay, sz if i < m else 0.0, b) for i, (ax, ay, b) in enumerate(base)]
    hot = [ax * hx + ay * hy > b for ax, ay, b in base]
    c = (hx, hy, 0.0)

    def candidates():
        """(row indices, point, multipliers) in scan order; dependent rows give NaNs."""
        for i, (ax, ay, az, b) in enumerate(rows):
            if hot[i]:
                rr = ax * ax + ay * ay + az * az
                lam = (ax * hx + ay * hy - b) / (rr if rr > _ZERO_TOL else math.nan)
                yield (i,), (hx - lam * ax, hy - lam * ay, -lam * az), (lam,)
        # A pair's third row is its unit line direction pinned at c, so its
        # vertex is the projection of c onto the line; that row is not a
        # constraint, so its multiplier is dropped.
        for i, j in itertools.combinations(range(len(rows)), 2):
            if hot[i] or hot[j]:
                (px, py, pz, _), (qx, qy, qz, _) = rows[i], rows[j]
                dx, dy, dz = py * qz - pz * qy, pz * qx - px * qz, px * qy - py * qx
                norm = math.sqrt(dx * dx + dy * dy + dz * dz) or math.nan
                dx, dy, dz = dx / norm, dy / norm, dz / norm
                z, lam = _cramer(rows[i], rows[j], (dx, dy, dz, dx * hx + dy * hy), c)
                yield (i, j), z, lam[:2]
        for i, j, k in itertools.combinations(range(len(rows)), 3):
            if hot[i] or hot[j] or hot[k]:
                yield (i, j, k), *_cramer(rows[i], rows[j], rows[k], c)

    for tried, (active, (x, y, t), lam) in enumerate(candidates(), 1):
        if all(l >= -1e-10 for l in lam) and all(
            ax * x + ay * y + az * t <= b + _FEAS_TOL for ax, ay, az, b in rows
        ):
            return (x, y, t / scale), active, tried
    raise RuntimeError("no KKT point among the relaxed candidates")


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


def kkt_check(problem: QpProblem, solution: QpSolution) -> float:
    """Max of the stationarity, feasibility, dual, and complementarity residuals.

    Multipliers are reconstructed from the solution's active set, so the
    residual certifies the returned point without trusting solver internals
    beyond that index set. One rule serves both phases: stationarity and
    complementarity are divided by 1 + max|multiplier|, so a vertex of
    nearly parallel rows or a large slack weight, whose multipliers are
    large, is judged by its constraint residuals rather than their products
    with the multipliers. Primal and dual feasibility stay absolute. A
    nominal returned untouched (the fast path) reads exactly 0. An optimal
    solution is checked against `problem.rows`, a relaxed one against
    `problem.relaxed_rows`.
    """
    ux, uy = float(solution.u_safe[0]), float(solution.u_safe[1])
    s, active = float(solution.slack), solution.active_set
    hx, hy = problem.nominal.tolist()

    if solution.status == STATUS_OPTIMAL:
        base = problem.rows
        gx, gy = ux - hx, uy - hy
        primal = max(0.0, max(ax * ux + ay * uy - b for ax, ay, b in base))
        if not active:
            lam, r = [], (gx, gy)
        elif len(active) == 1:
            ax, ay, _ = base[active[0]]
            lam = [-(ax * gx + ay * gy) / (ax * ax + ay * ay)]
            r = (gx + lam[0] * ax, gy + lam[0] * ay)
        else:
            (a1x, a1y, _), (a2x, a2y, _) = base[active[0]], base[active[1]]
            det = a1x * a2y - a1y * a2x
            if abs(det) <= _ZERO_TOL:
                return math.inf
            lam = [(-gx * a2y + gy * a2x) / det, (-a1x * gy + a1y * gx) / det]
            r = (gx + lam[0] * a1x + lam[1] * a2x, gy + lam[0] * a1y + lam[1] * a2y)
        gaps = [base[i][2] - base[i][0] * ux - base[i][1] * uy for i in active]
    else:
        # Relaxed phase: variables (u, s), gradient (u - nominal, 2*w*s).
        base, m = problem.relaxed_rows, len(problem.constraints) + len(problem.bounds)
        w = float(problem.slack_weight)
        z = np.array([ux, uy, s])
        grad = np.array([ux - hx, uy - hy, 2.0 * w * s])
        rows3 = [np.array([ax, ay, -1.0]) for ax, ay, _ in base[:m]]
        rows3 += [np.array([ax, ay, 0.0]) for ax, ay, _ in base[m:]]
        rows3.append(np.array([0.0, 0.0, -1.0]))
        bounds3 = [b for _, _, b in base] + [0.0]
        primal = max([0.0] + [float(r @ z) - b for r, b in zip(rows3, bounds3)])
        if active:
            A = np.stack([rows3[i] for i in active], axis=1)
            lam, *_ = np.linalg.lstsq(A, -grad, rcond=None)
            lam, r = lam.tolist(), (grad + A @ lam).tolist()
        else:
            lam, r = [], grad.tolist()
        gaps = [bounds3[i] - float(rows3[i] @ z) for i in active]

    denom = 1.0 + max(map(abs, lam), default=0.0)
    stationarity = max(map(abs, r)) / denom
    dual = max(0.0, -min(lam, default=0.0))
    comp = max((abs(l * gap) for l, gap in zip(lam, gaps)), default=0.0) / denom
    return max(stationarity, primal, dual, comp)
