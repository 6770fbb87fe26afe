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
   nominal, the projection onto each violated row, then each pairwise
   vertex with at least one row violated at the nominal (no other vertex
   can be the projection); the first feasible one with nonnegative
   multipliers wins. When none qualifies the set is empty.
2. Slack phase. Only when the rows conflict outright, one shared
   nonnegative slack s relaxes every row (a.u <= b + s) under a quadratic
   penalty, which is always solvable; status "relaxed" reports the
   safety-margin erosion instead of crashing. The same rule runs in three
   variables over subsets of at most three rows.

`QpProblem` converts its rows to float triples once, and both phases and
`kkt_check` read that one list. `QpSolution.iterations` counts the
candidates evaluated (skipped pairs do not count); it is 0 exactly when the
box clip of the nominal is returned.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

STATUS_OPTIMAL = "optimal"
STATUS_RELAXED = "relaxed"

_FEAS_TOL = 1e-9
_ZERO_TOL = 1e-12


def _fields_repr(obj) -> str:
    fields = ", ".join(f"{name}={getattr(obj, name)!r}" for name in obj._fields)
    return f"{type(obj).__name__}({fields})"


class QpProblem:
    """Projection instance: nominal action, halfplane rows, box, slack penalty.

    `rows` holds every row once as an (ax, ay, b) float triple: constraint
    rows in problem order, then the +x, -x, +y, -y box rows. That index
    scheme is used everywhere (active sets, KKT checks); the slack
    nonnegativity row of the relaxed phase sits one past the box rows.
    Fields are read-only, so `rows` cannot drift from `constraints`.
    """

    __slots__ = ("nominal", "constraints", "box", "slack_weight", "rows")
    _fields = __slots__[:4]

    def __init__(self, nominal, constraints=(), box=1.0, slack_weight=1e6):
        u = nominal
        if not (type(u) is np.ndarray and u.shape == (2,) and u.dtype == np.float64):
            u = np.asarray(u, dtype=float).reshape(2)
        hx, hy = u.tolist()
        if not (math.isfinite(hx) and math.isfinite(hy)):
            raise ValueError(f"nominal action must be finite, got {nominal!r}")
        if not (math.isfinite(box) and box > 0):
            raise ValueError("box must be a positive finite scalar")
        if not (math.isfinite(slack_weight) and slack_weight >= 0):
            raise ValueError("slack_weight must be >= 0")
        cons = tuple(constraints)
        b = float(box)
        rows = [(c.ax, c.ay, float(c.bound)) for c in cons]
        rows += [(1.0, 0.0, b), (-1.0, 0.0, b), (0.0, 1.0, b), (0.0, -1.0, b)]
        init = object.__setattr__
        init(self, "nominal", u)
        init(self, "constraints", cons)
        init(self, "box", box)
        init(self, "slack_weight", slack_weight)
        init(self, "rows", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError(f"QpProblem.{name} is read-only")

    __repr__ = _fields_repr


class QpSolution:
    """Solver output: the action, shared slack, active rows, KKT residual, status, candidates."""

    __slots__ = _fields = ("u_safe", "slack", "active_set", "kkt_residual", "status", "iterations")

    def __init__(self, u_safe, slack, active_set, kkt_residual, status, iterations=0):
        self.u_safe, self.slack, self.active_set = u_safe, slack, active_set
        self.kkt_residual, self.status, self.iterations = kkt_residual, status, iterations

    __repr__ = _fields_repr


def _feasible(rows, x, y) -> bool:
    return all(ax * x + ay * y <= b + _FEAS_TOL for ax, ay, b in rows)


def _solve_projection(problem: QpProblem):
    """Phase 1: exact projection onto rows + box; None when rows conflict.

    Returns ((x, y), active rows, candidates evaluated).
    """
    hx, hy = problem.nominal.tolist()
    box = float(problem.box)
    rows = problem.rows
    n = len(rows)
    m = n - 4

    # Fast path: the box clip of the nominal already satisfies every row.
    # An inactive clip returns the nominal bit-exactly; an active clip is
    # the projection onto the box and a fortiori onto the region inside it.
    cx = hx if -box <= hx <= box else (box if hx > 0 else -box)
    cy = hy if -box <= hy <= box else (box if hy > 0 else -box)
    for ax, ay, b in rows:
        if not ax * cx + ay * cy <= b:
            break
    else:
        active = []
        if cx != hx:
            active.append(m if hx > 0 else m + 1)
        if cy != hy:
            active.append(m + 2 if hy > 0 else m + 3)
        return (cx, cy), tuple(active), 0

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


@functools.cache
def _subsets(n: int, k: int) -> np.ndarray:
    """The k-row subsets of n rows in lexicographic order, as a read-only index array."""
    out = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp).reshape(-1, k)
    out.setflags(write=False)
    return out


def _cross(a, b):
    """Cross products along the last axis; np.cross's axis handling costs more."""
    return np.stack(
        [
            a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
            a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
            a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0],
        ],
        axis=-1,
    )


def _vertices(M, rhs, c):
    """Solve M[t] z = rhs[t] for stacked 3x3 systems; multipliers of c - z.

    Cramer's rule, whose adjugate columns are cross products of the rows,
    keeps the conditioning of M; normal equations would square it, which
    the tiny slack column cannot afford. Returns (z, lam, det); det ~ 0
    flags dependent rows.
    """
    adj = _cross(M[:, [1, 2, 0]], M[:, [2, 0, 1]])
    det = np.einsum("ti,ti->t", M[:, 0], adj[:, 0])
    z = np.einsum("tk,tki->ti", rhs, adj) / det[:, None]
    lam = np.einsum("tki,ti->tk", adj, c - z) / det[:, None]
    return z, lam, det


def _solve_relaxed(problem: QpProblem):
    """Phase 2: shared-slack relaxation, always feasible; 3-variable enumeration.

    The slack variable is rescaled by sqrt(2w) so the objective becomes a
    pure Euclidean projection in three variables (identity Hessian), which
    stays well conditioned for arbitrarily large penalties. The optimum lies
    on at most three independent active rows, so the subsets of one, two,
    then three rows are scanned and the first candidate that is feasible
    with nonnegative multipliers is the optimum. The s >= 0 row is left out:
    this phase runs only when the rows conflict, so the optimal s is > 0.
    Returns ((x, y, s), active rows, candidates evaluated).
    """
    hx, hy = problem.nominal.tolist()
    box = float(problem.box)
    w = float(problem.slack_weight)
    m = len(problem.constraints)
    base = problem.rows

    ux = min(max(hx, -box), box)
    uy = min(max(hy, -box), box)
    if w == 0.0:
        # Penalty-free slack absorbs every row; only the box binds the action.
        return (ux, uy, max(0.0, max(ax * ux + ay * uy - b for ax, ay, b in base[:m]))), (), 0

    scale = math.sqrt(2.0 * w)  # z[2] holds s * scale
    rows3 = np.array(base)
    bounds3 = rows3[:, 2].copy()
    rows3[:, 2] = 0.0
    rows3[:m, 2] = -1.0 / scale
    c = np.array([hx, hy, 0.0])

    def first_kkt(z, lam, det):
        """Index of the first feasible candidate with nonnegative multipliers, or -1."""
        ok = (
            (np.abs(det) > _ZERO_TOL)
            & np.all(z @ rows3.T <= bounds3 + _FEAS_TOL, axis=1)
            & np.all(lam >= -1e-10, axis=1)
        )
        return int(np.argmax(ok)) if ok.any() else -1

    n = len(base)
    tried = n
    # Dependent subsets divide by a zero determinant; their NaN candidates
    # fail every comparison in first_kkt.
    with np.errstate(divide="ignore", invalid="ignore"):
        # one row: the projection of c onto the row's plane
        rr = np.einsum("ti,ti->t", rows3, rows3)
        lam = ((rows3 @ c - bounds3) / rr)[:, None]
        best = first_kkt(c - lam * rows3, lam, rr)
        active = (best,)
        if best < 0:
            # Two and three rows as one batch of 3x3 vertices, pairs first.
            # A pair's third row is its unit line direction pinned at c, so
            # its vertex is the projection of c onto the line.
            pairs, triples = _subsets(n, 2), _subsets(n, 3)
            ri, rj = rows3[pairs[:, 0]], rows3[pairs[:, 1]]
            d = _cross(ri, rj)
            d /= np.sqrt(np.einsum("ti,ti->t", d, d))[:, None]
            M = np.concatenate([np.stack([ri, rj, d], axis=1), rows3[triples]])
            pair_rhs = np.stack([bounds3[pairs[:, 0]], bounds3[pairs[:, 1]], d @ c], axis=1)
            rhs = np.concatenate([pair_rhs, bounds3[triples]])
            z, lam, det = _vertices(M, rhs, c)
            lam[: len(pairs), 2] = 0.0  # the pinned direction is not a constraint
            best = first_kkt(z, lam, det)
            tried += len(pairs) + len(triples)
            if best < 0:
                raise RuntimeError("no KKT point among the relaxed candidates")
            active = tuple(pairs[best] if best < len(pairs) else triples[best - len(pairs)])

    # re-derive the winner by lstsq so active rows hold with equality to
    # machine precision
    A, bw = rows3[list(active)], bounds3[list(active)]
    correction, *_ = np.linalg.lstsq(A, bw - A @ c, rcond=None)
    z = c + correction
    return (float(z[0]), float(z[1]), float(z[2]) / scale), tuple(int(i) for i in active), tried


def solve(problem: QpProblem) -> QpSolution:
    """Project the nominal action onto the stacked constraints.

    Returns the exact projection (status "optimal", slack 0) whenever the
    rows and box admit any action; otherwise minimizes the quadratic slack
    penalty (status "relaxed"). Every solve except the untouched fast path
    carries its KKT residual.
    """
    result = _solve_projection(problem)
    if result is None:
        (ux, uy, s), active, iters = _solve_relaxed(problem)
        status, s = STATUS_RELAXED, max(s, 0.0)
    else:
        (ux, uy), active, iters = result
        status, s = STATUS_OPTIMAL, 0.0
    # fast path: nominal returned untouched with every row verified; the
    # gradient is exactly zero, so the certificate is zero by construction
    fast = status == STATUS_OPTIMAL and iters == 0 and not active
    kkt = 0.0 if fast else _kkt_residual(problem, ux, uy, s, active, status)
    return QpSolution(np.array([ux, uy]), s, active, kkt, status, iters)


def kkt_check(problem: QpProblem, solution: QpSolution) -> float:
    """Max of the stationarity, feasibility, dual, and complementarity residuals.

    Multipliers are reconstructed from the solution's active set, so the
    residual certifies the returned point without trusting solver internals
    beyond that index set. Stationarity and complementarity are normalized
    by the multiplier scale: slack-penalty multipliers grow with the
    penalty weight, and the meaningful certificate at that scale is the
    constraint residual itself, not its product with the multiplier.
    """
    ux, uy = float(solution.u_safe[0]), float(solution.u_safe[1])
    return _kkt_residual(
        problem, ux, uy, float(solution.slack), solution.active_set, solution.status
    )


def _kkt_residual(problem: QpProblem, ux, uy, s, active, status) -> float:
    """kkt_check on the solution's fields, before `solve` builds the QpSolution."""
    hx, hy = problem.nominal.tolist()
    base = problem.rows
    m = len(problem.constraints)

    if status == STATUS_OPTIMAL:
        gx, gy = ux - hx, uy - hy
        primal = 0.0
        for ax, ay, b in base:
            v = ax * ux + ay * uy - b
            if v > primal:
                primal = v
        if not active:
            return max(abs(gx), abs(gy), primal)
        if len(active) == 1:
            ax, ay, _ = base[active[0]]
            lam = [-(ax * gx + ay * gy) / (ax * ax + ay * ay)]
            sx, sy = gx + lam[0] * ax, gy + lam[0] * ay
        else:
            (a1x, a1y, _), (a2x, a2y, _) = base[active[0]], base[active[1]]
            det = a1x * a2y - a1y * a2x
            if abs(det) <= _ZERO_TOL:
                return math.inf
            lam = [(-gx * a2y + gy * a2x) / det, (-a1x * gy + a1y * gx) / det]
            sx = gx + lam[0] * a1x + lam[1] * a2x
            sy = gy + lam[0] * a1y + lam[1] * a2y
        stationarity = max(abs(sx), abs(sy))
        dual = max(0.0, -min(lam))
        comp = max(
            abs(l * (base[i][2] - base[i][0] * ux - base[i][1] * uy)) for l, i in zip(lam, active)
        )
        return max(stationarity, primal, dual, comp)

    # Relaxed phase: variables (u, s), gradient (u - nominal, 2*w*s).
    w = float(problem.slack_weight)
    z = np.array([ux, uy, s])
    grad = np.array([ux - hx, uy - hy, 2.0 * w * s])
    rows3 = [np.array([ax, ay, -1.0]) for ax, ay, _ in base[:m]]
    rows3 += [np.array([ax, ay, 0.0]) for ax, ay, _ in base[m:]]
    rows3.append(np.array([0.0, 0.0, -1.0]))
    bounds3 = [b for _, _, b in base] + [0.0]
    primal = max([0.0] + [float(r @ z) - b for r, b in zip(rows3, bounds3)])
    if not active:
        return max(float(np.max(np.abs(grad))), primal)
    A = np.stack([rows3[i] for i in active], axis=1)
    lam, *_ = np.linalg.lstsq(A, -grad, rcond=None)
    denom = 1.0 + float(np.max(np.abs(lam)))
    stationarity = float(np.max(np.abs(grad + A @ lam))) / denom
    dual = max(0.0, float(-np.min(lam)))
    comp = max(abs(float(l) * (bounds3[i] - float(rows3[i] @ z))) for l, i in zip(lam, active)) / denom
    return max(stationarity, primal, dual, comp)
