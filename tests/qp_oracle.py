"""Brute-force grid-refinement oracle for the projection QP.

Independent of the solver: feasibility is a direct row check on grid
points, the optimum is located by repeatedly shrinking the grid window
around the best point found. Used by unit and acceptance tests.
`full_pair_scan` is the unpruned reference for the solver's projection
phase.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def _row_arrays(problem):
    if problem.constraints:
        A = np.array([[ax, ay] for ax, ay, _ in problem.constraints])
        b = np.array([bound for _, _, bound in problem.constraints])
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
    >= -1e-10, reported through `reported_pair`. Rows are read from `problem.constraints`, not from the
    solver's cached row list. Returns ((x, y), active rows, candidates
    evaluated), or None when the rows conflict.
    """
    hx, hy = float(problem.nominal[0]), float(problem.nominal[1])
    box = float(problem.box)
    rows = [(float(ax), float(ay), float(b)) for ax, ay, b in problem.constraints]
    m = len(rows)
    rows += [(1.0, 0.0, box), (-1.0, 0.0, box), (0.0, 1.0, box), (0.0, -1.0, box)]

    def feasible(x, y):
        return all(ax * x + ay * y <= b + feas_tol for ax, ay, b in rows)

    cx, cy = min(max(hx, -box), box), min(max(hy, -box), box)
    if all(ax * cx + ay * cy <= b for ax, ay, b in rows):
        active = []
        if cx != hx:
            active.append(m if hx > 0 else m + 1)
        if cy != hy:
            active.append(m + 2 if hy > 0 else m + 3)
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
                return (zx, zy), reported_pair(rows, zx, zy, gx, gy, (i, j)), tried
    return None


def reported_pair(rows, zx, zy, gx, gy, found, tight_tol: float = 1e-9):
    """The pair a vertex solution reports: among all pairs of rows within
    tight_tol of z (only when three or more are), the first in (i, j) order
    with the largest |sin| between the normals and both multipliers of
    g = nominal - z >= -1e-10; the pair that found the vertex otherwise."""
    tight = [k for k, (ax, ay, b) in enumerate(rows) if abs(ax * zx + ay * zy - b) <= tight_tol]
    if len(tight) < 3:
        return found
    scored = []
    for i, j in itertools.combinations(tight, 2):
        (a1x, a1y, _), (a2x, a2y, _) = rows[i], rows[j]
        det = a1x * a2y - a1y * a2x
        if det == 0.0:
            continue
        if (gx * a2y - gy * a2x) / det >= -1e-10 and (a1x * gy - a1y * gx) / det >= -1e-10:
            scored.append((-abs(det) / (math.hypot(a1x, a1y) * math.hypot(a2x, a2y)), (i, j)))
    return min(scored)[1] if scored else found
