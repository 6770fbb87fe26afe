"""Brute-force grid-refinement oracle for the projection QP.

Independent of the solver: feasibility is a direct row check on grid
points, the optimum is located by repeatedly shrinking the grid window
around the best point found. Used by unit and acceptance tests.
`full_pair_scan` and `full_relaxed_scan` are the unpruned references for
the solver's projection and relaxed phases. Each reads the box
[-b, b] from `problem.box` itself. The grid oracles check the
axis-aligned `problem.bounds` as rows over that box, in both phases;
`full_pair_scan` folds them into the box as the bounds they are, and
`full_relaxed_scan` relaxes them as rows.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

_FEAS_TOL = 1e-9
_ZERO_TOL = 1e-12


def _folded_limits(problem):
    """The box as (lo_x, hi_x, lo_y, hi_y), each bound ax*ux <= b or ay*uy <= b divided in; may be empty."""
    box = float(problem.box)
    lim = [-box, box, -box, box]
    for ax, ay, b in problem.bounds:
        k, a = (0, ax) if ay == 0.0 else (2, ay)
        if a > 0.0:
            lim[k + 1] = min(lim[k + 1], b / a)
        else:
            lim[k] = max(lim[k], b / a)
    return tuple(lim)


def _row_arrays(problem):
    rows = [*problem.constraints, *problem.bounds]
    if rows:
        A = np.array([[ax, ay] for ax, ay, _ in rows])
        b = np.array([bound for _, _, bound in rows])
    else:
        A = np.zeros((0, 2))
        b = np.zeros(0)
    return A, b


def grid_project(problem, levels: int = 12, n: int = 33):
    """Approximate projection of the nominal onto rows + box, or None if no
    feasible grid point is ever seen."""
    A, b = _row_arrays(problem)
    box = problem.box
    cx, cy = 0.0, 0.0
    half = box
    best = None
    best_obj = np.inf
    for _ in range(levels):
        xs = np.linspace(max(cx - half, -box), min(cx + half, box), n)
        ys = np.linspace(max(cy - half, -box), min(cy + half, box), n)
        gx, gy = np.meshgrid(xs, ys)
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        feas = np.ones(len(pts), dtype=bool)
        if len(A):
            feas = np.all(pts @ A.T <= b + 1e-12, axis=1)
        if not np.any(feas):
            half /= 2.0
            continue
        obj = 0.5 * np.sum((pts - problem.nominal) ** 2, axis=1)
        obj[~feas] = np.inf
        k = int(np.argmin(obj))
        if obj[k] < best_obj:
            best_obj = float(obj[k])
            best = pts[k]
        cx, cy = float(pts[k][0]), float(pts[k][1])
        half /= 2.0
    return (best, best_obj) if best is not None else None


def grid_relaxed(problem, levels: int = 12, n: int = 33):
    """Approximate minimizer of the slack-penalized composite objective
    0.5|u - nominal|^2 + w * max(0, max violation)^2 over the box."""
    A, b = _row_arrays(problem)
    w = problem.slack_weight
    box = problem.box
    cx, cy = 0.0, 0.0
    half = box
    best_obj = np.inf
    best = None
    for _ in range(levels):
        xs = np.linspace(max(cx - half, -box), min(cx + half, box), n)
        ys = np.linspace(max(cy - half, -box), min(cy + half, box), n)
        gx, gy = np.meshgrid(xs, ys)
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        if len(A):
            viol = np.max(pts @ A.T - b, axis=1)
            slack = np.maximum(viol, 0.0)
        else:
            slack = np.zeros(len(pts))
        obj = 0.5 * np.sum((pts - problem.nominal) ** 2, axis=1) + w * slack**2
        k = int(np.argmin(obj))
        if obj[k] < best_obj:
            best_obj = float(obj[k])
            best = pts[k]
        cx, cy = float(pts[k][0]), float(pts[k][1])
        half /= 2.0
    return best, best_obj


def full_pair_scan(problem, feas_tol: float = 1e-9, zero_tol: float = 1e-12):
    """Reference projection phase that scans every (i<j) vertex pair.

    Same candidates and arithmetic as the solver's projection phase, with
    no pruning: box clip, then the projection onto each violated row, then
    each pairwise vertex of constraint and box rows whose multipliers are
    >= -1e-10, reported as the pair that found it. Rows are read from
    `problem.constraints`, not from the solver's cached row list, and the
    box rows from the box with `problem.bounds` folded in. Returns
    ((x, y), active rows, candidates evaluated), or None when the rows
    conflict or the folded box is empty.
    """
    hx, hy = float(problem.nominal[0]), float(problem.nominal[1])
    lox, hix, loy, hiy = _folded_limits(problem)
    if lox > hix or loy > hiy:
        return None
    rows = [(float(ax), float(ay), float(b)) for ax, ay, b in problem.constraints]
    m = len(rows)
    rows += [(1.0, 0.0, hix), (-1.0, 0.0, -lox), (0.0, 1.0, hiy), (0.0, -1.0, -loy)]

    def feasible(x, y):
        return all(ax * x + ay * y <= b + feas_tol for ax, ay, b in rows)

    cx, cy = min(max(hx, lox), hix), min(max(hy, loy), hiy)
    if all(ax * cx + ay * cy <= b for ax, ay, b in rows):
        active = []
        if cx != hx:
            active.append(m if hx > hix else m + 1)
        if cy != hy:
            active.append(m + 2 if hy > hiy else m + 3)
        return (cx, cy), tuple(active), 0
    tried = 0
    for i, (ax, ay, b) in enumerate(rows):
        v = ax * hx + ay * hy - b
        if v > 0.0:
            tried += 1
            t = v / (ax * ax + ay * ay)
            zx, zy = hx - t * ax, hy - t * ay
            if feasible(zx, zy):
                return (zx, zy), (i,), tried
    for i, (a1x, a1y, b1) in enumerate(rows):
        for j in range(i + 1, len(rows)):
            a2x, a2y, b2 = rows[j]
            tried += 1
            det = a1x * a2y - a1y * a2x
            if abs(det) <= zero_tol:
                continue
            zx, zy = (b1 * a2y - a1y * b2) / det, (a1x * b2 - b1 * a2x) / det
            gx, gy = hx - zx, hy - zy
            if (
                (gx * a2y - gy * a2x) / det >= -1e-10
                and (a1x * gy - a1y * gx) / det >= -1e-10
                and feasible(zx, zy)
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


def _dot3(a, b):
    """Dot products along the last axis, summed left to right as the solver sums them."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _vertices(M, rhs, c):
    """Solve M[t] z = rhs[t] for stacked 3x3 systems; multipliers of c - z.

    Cramer's rule, whose adjugate columns are cross products of the rows,
    keeps the conditioning of M; normal equations would square it, which
    the tiny slack column cannot afford. Every sum is written out in the
    solver's order, so each candidate matches the solver's bit for bit.
    Returns (z, lam, det); det ~ 0 flags dependent rows.
    """
    adj = _cross(M[:, [1, 2, 0]], M[:, [2, 0, 1]])
    det = _dot3(M[:, 0], adj[:, 0])
    z = (rhs[:, 0, None] * adj[:, 0] + rhs[:, 1, None] * adj[:, 1] + rhs[:, 2, None] * adj[:, 2]) / det[:, None]
    lam = _dot3(adj, (c - z)[:, None, :]) / det[:, None]
    return z, lam, det


def full_relaxed_scan(problem):
    """Reference relaxed phase: every row, pair and triple as one numpy batch.

    The solver's shared-slack phase before it pruned to subsets holding a
    violated row, kept as the unpruned reference: the projection of
    c = (nominal, 0) in (u, s * sqrt(2w)) onto each row's plane, then onto
    each pair's line, then each triple's vertex, the first that is
    feasible with multipliers >= -1e-10 winning and returned as computed.
    Rows are read from `problem.constraints` and `problem.bounds`, both
    relaxed, then the box rows. Returns ((x, y, s), active
    rows, candidates evaluated: every row, pair and triple of the batch
    that ran).
    """
    hx, hy = problem.nominal.tolist()
    box = float(problem.box)
    w = float(problem.slack_weight)
    base = [(float(ax), float(ay), float(b)) for ax, ay, b in (*problem.constraints, *problem.bounds)]
    m = len(base)
    base += [(1.0, 0.0, box), (-1.0, 0.0, box), (0.0, 1.0, box), (0.0, -1.0, box)]

    ux = min(max(hx, -box), box)
    uy = min(max(hy, -box), box)
    if w == 0.0:
        # Penalty-free slack absorbs every row; only the box binds the action,
        # through the box rows the clip binds.
        active = []
        if ux != hx:
            active.append(m if hx > 0 else m + 1)
        if uy != hy:
            active.append(m + 2 if hy > 0 else m + 3)
        return (ux, uy, max(0.0, max(ax * ux + ay * uy - b for ax, ay, b in base[:m]))), tuple(active), 0

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
            & np.all(_dot3(z[:, None, :], rows3) <= bounds3 + _FEAS_TOL, axis=1)
            & np.all(lam >= -1e-10, axis=1)
        )
        return int(np.argmax(ok)) if ok.any() else -1

    n = len(base)
    tried = n
    # Dependent subsets divide by a zero determinant; their NaN candidates
    # fail every comparison in first_kkt.
    with np.errstate(divide="ignore", invalid="ignore"):
        # one row: the projection of c onto the row's plane
        rr = _dot3(rows3, rows3)
        lam = (rows3[:, 0] * hx + rows3[:, 1] * hy - bounds3) / rr
        z = np.stack([hx - lam * rows3[:, 0], hy - lam * rows3[:, 1], -lam * rows3[:, 2]], axis=1)
        best = first_kkt(z, lam[:, None], rr)
        active = (best,)
        if best < 0:
            # Two and three rows as one batch of 3x3 vertices, pairs first.
            # A pair's third row is its unit line direction pinned at c, so
            # its vertex is the projection of c onto the line.
            pairs, triples = _subsets(n, 2), _subsets(n, 3)
            ri, rj = rows3[pairs[:, 0]], rows3[pairs[:, 1]]
            d = _cross(ri, rj)
            d /= np.sqrt(_dot3(d, d))[:, None]
            M = np.concatenate([np.stack([ri, rj, d], axis=1), rows3[triples]])
            pair_rhs = np.stack([bounds3[pairs[:, 0]], bounds3[pairs[:, 1]], d[:, 0] * hx + d[:, 1] * hy], axis=1)
            rhs = np.concatenate([pair_rhs, bounds3[triples]])
            z, lam, det = _vertices(M, rhs, c)
            lam[: len(pairs), 2] = 0.0  # the pinned direction is not a constraint
            best = first_kkt(z, lam, det)
            tried += len(pairs) + len(triples)
            if best < 0:
                raise RuntimeError("no KKT point among the relaxed candidates")
            active = tuple(pairs[best] if best < len(pairs) else triples[best - len(pairs)])
    x, y, t = z[best].tolist()
    return (x, y, t / scale), tuple(int(i) for i in active), tried
