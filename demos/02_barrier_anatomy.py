"""What the braking-distance barriers measure and when their rows bite.

Run:  python demos/02_barrier_anatomy.py
"""

import numpy as np

from marlshield.barriers import ShieldParams, cbf_condition_residual, h_cooperative
from marlshield.dynamics import AgentState, ObstacleSpec, WorldConfig
from marlshield.shield import local_rows

params = ShieldParams()
world = WorldConfig(wall_half_extent=100.0)  # walls far outside sensing range
print(f"safe distance d_s={params.d_s}, caps {params.a_max_self}/{params.a_max_other}, "
      f"gammas {params.gamma_coo}/{params.gamma_non}, sensing {params.r_sense}\n")

print("== cooperative barrier vs closing speed (separation 0.5) ==")
for closing in (0.0, 0.5, 1.0, 1.3, 1.5):
    h = h_cooperative([0.5, 0.0], [-closing, 0.0], params)
    tag = "safe" if h > 0 else "VIOLATED (shield would brake)"
    print(f"  closing {closing:4.1f}: h = {h:+.3f}  {tag}")

print("\n== barrier value vs separation (head-on at 0.8) ==")
for r in (1.0, 0.6, 0.4, 0.3, 0.25):
    h = h_cooperative([r, 0.0], [-0.8, 0.0], params)
    print(f"  separation {r:4.2f}: h = {h:+.3f}")

print("\n== the emitted rows ==")
a = AgentState([0.0, 0.0], [0.6, 0.0])
b = AgentState([0.5, 0.0], [-0.6, 0.0])
# each row is an (ax, ay, b) triple: the focal acceleration u must keep ax*ux + ay*uy <= b
rows, _, _, _, _ = local_rows(0, a, [(1, b)], [], world, params)
ax, ay, bound = rows[0]
normal = np.array([ax, ay])
print(f"  pair row: normal={normal}, bound={bound:.4f} (half of the pairwise budget)")
print(f"  full-throttle approach u=(1,0): lhs={float(normal @ [1, 0]):+.4f} "
      f"{'violates -> correction' if float(normal @ [1, 0]) > bound else 'fits'}")

obs = ObstacleSpec([0.4, 0.0])
agent = AgentState([0.0, 0.0], [0.7, 0.0])
rows, _, _, _, _ = local_rows(0, agent, [], [obs], world, params)
ax, ay, bound = rows[0]
print(f"  obstacle row: normal={np.array([ax, ay])}, bound={bound:.4f} (no split, obstacle will not help)")

print("\n== the growth condition the rows encode ==")
h = 0.8
for h_dot in (0.0, -0.1, -params.gamma_coo * h**3, -2 * params.gamma_coo * h**3):
    r = cbf_condition_residual(h, h_dot, params.gamma_coo)
    status = "ok" if r <= 1e-12 else "violated"
    print(f"  h={h}, h_dot={h_dot:+.4f}: residual {r:+.4f} ({status})")
print("\nresidual <= 0 exactly when the reciprocal barrier grows slower than its allowance")
