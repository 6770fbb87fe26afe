"""Minimal-interference projection: what the tiny QP does to a nominal action.

Run:  python demos/03_action_projection.py
"""

import numpy as np

from marlshield.qp import QpProblem, kkt_check, solve


def row(nx, ny, b):
    """The halfplane nx*ux + ny*uy <= b as the (ax, ay, b) float triple the solver takes."""
    return float(nx), float(ny), float(b)


def show(label, problem):
    sol = solve(problem)
    moved = np.linalg.norm(sol.u_safe - problem.nominal)
    print(f"{label}")
    print(f"  nominal {problem.nominal} -> safe {np.round(sol.u_safe, 4)}")
    print(f"  status={sol.status}  |correction|={moved:.4f}  slack={sol.slack:.2e}  "
          f"active={sol.active_set}  kkt={kkt_check(problem, sol):.1e}  candidates={sol.iterations}")
    print()
    return sol


show("1) feasible nominal passes through untouched",
     QpProblem(nominal=np.array([0.3, -0.2]), constraints=(row(1, 0, 0.5),)))

show("2) one violated halfplane: exact projection onto it",
     QpProblem(nominal=np.array([1.0, 0.0]), constraints=(row(1, 0, 0.5),)))

show("3) out-of-box nominal clips to the corner",
     QpProblem(nominal=np.array([2.0, 2.0])))

show("4) two rows activate together: projection lands on their vertex",
     QpProblem(nominal=np.array([1.0, 1.0]),
               constraints=(row(1, 0, 0.2), row(0, 1, 0.4))))

sol = show("5) contradictory rows: shared slack keeps the problem solvable",
           QpProblem(nominal=np.array([0.0, 0.0]),
                     constraints=(row(1, 0, -0.4), row(-1, 0, -0.4))))
print(f"   the reported slack {sol.slack:.4f} measures how much the rows had to give")
