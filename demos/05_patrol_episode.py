"""One shielded episode of the two-patrolman task with a random policy.

Run:  python demos/05_patrol_episode.py
Writes demo_out/patrol.svg showing the arena, obstacle halos, check-ins, paths.
"""

from pathlib import Path

import numpy as np

from marlshield.barriers import ShieldParams
from marlshield.patrol import EpisodeLedger, PatrolEnv, default_world
from marlshield.shield import filter_action
from marlshield.svgplot import render_arena

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)

params = ShieldParams()
env = PatrolEnv(default_world(), params, episode_len=200)
rng = np.random.default_rng(7)

state, obs = env.reset(seed=42)
ledger = EpisodeLedger(params.d_s)
positions = [[], []]
done = False
t = 0
while not done:
    nominal = rng.uniform(-1, 1, size=(2, 2))
    actions = np.empty_like(nominal)
    reports = []
    for i in range(2):
        u, rep = filter_action(
            i, nominal[i], state.agents[i], list(enumerate(state.agents)),
            env.world.obstacles, env.world, params,
        )
        actions[i] = u
        reports.append(rep)
    state, obs, rewards, done = env.step(state, actions)
    ledger.record(state, rewards, reports)
    for i in range(2):
        positions[i].append(state.agents[i].position)
    t += 1

metrics = ledger.metrics()
print(f"episode length: {t} steps")
print(f"total rewards: patrolman I {metrics['reward_I']:.0f}, II {metrics['reward_II']:.0f}")
print(f"collision steps: {metrics['collisions_step']}")
print(f"closest approach to any entity: {metrics['min_dist']:.4f} (d_s={params.d_s})")
print(f"check-ins reached by the random policy: {metrics['checkins']}")
print(f"filter interventions: {metrics['corrections']} of {2 * t} actions")

paths = {f"patrolman {i + 1}": np.array(positions[i]) for i in range(2)}
svg = render_arena(env.world, paths, d_s=params.d_s, title="random policy under the filter")
(OUT / "patrol.svg").write_text(svg)
print(f"wrote {OUT / 'patrol.svg'}")
