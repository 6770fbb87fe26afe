"""Tour of the simulation core: point-mass stepping, clamping, wall geometry.

Run:  python demos/01_double_integrator.py
Writes demo_out/ballistic.svg with a few ballistic trajectories.
"""

from pathlib import Path

import numpy as np

from marlshield.dynamics import AgentState, WorldConfig, face_clearances, step_agent
from marlshield.svgplot import render_arena

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)

world = WorldConfig(wall_half_extent=1.0)

print("== semi-implicit stepping ==")
s = AgentState([0, 0], [0, 0])
for k in range(3):
    s = step_agent(s, [1.0, 0.0], 0.1)
    print(f"  step {k + 1}: p={s.position}, v={s.velocity}")
print("velocity moves first, position follows with the new velocity\n")

print("== per-component velocity clamp ==")
s = AgentState([0, 0], [0.95, 0.95])
s = step_agent(s, [1.0, 1.0], 0.1, v_max=1.0)
print(f"  after one full-throttle step: v={s.velocity} (capped at 1.0 per axis)\n")

print("== wall clearance ==")
for p in ([0.0, 0.0], [0.9, 0.0], [0.9, 0.9], [-0.2, -0.95]):
    # the nearest face; ties go to the first in (+x, -x, +y, -y) order
    _, point, dist = min(face_clearances(p, world.wall_half_extent), key=lambda face: face[2])
    print(f"  p={p}: nearest boundary point {np.array(point)}, distance {dist:.3f}")

# ballistic arcs: constant acceleration from different headings
paths = {}
for k, angle in enumerate(np.linspace(0, 2 * np.pi, 5, endpoint=False)):
    s = AgentState([0, 0], [0.6 * np.cos(angle), 0.6 * np.sin(angle)])
    accel = np.array([0.0, -0.4])
    pts = [s.position]
    for _ in range(25):
        s = step_agent(s, accel, 0.1)
        pts.append(s.position)
    paths[f"launch {k + 1}"] = np.array(pts)

svg = render_arena(world, paths, title="ballistic arcs under constant downward thrust")
(OUT / "ballistic.svg").write_text(svg)
print(f"\nwrote {OUT / 'ballistic.svg'}")
