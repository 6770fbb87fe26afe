"""Time the control tick of two checkouts side by side in one process.

Usage: python tools/pair_tick.py A B [--rounds N] [--scenarios S] [--ticks T] [--seed K]
       python tools/pair_tick.py A B --train {unshielded,shielded} [--rounds N] [--seeds S] [--episodes E]

Loads `A/src/marlshield` and `B/src/marlshield` under their own module names
(the package imports itself only relatively). By default it draws one set
of seeded safe starts and runs the tick of the benchmark's
`adversarial_rollout` workload on them: two agents and one point obstacle
in a 100-unit arena, each agent's nominal full throttle at its nearest
entity, then one filter call and one `step_agent` per agent (positions are
read as the state's floats, not through its `position` arrays, so the tick
is the package's work). With `--train` it runs the training tick of the
benchmark workload of that name instead: trainer seeds 100 to 100 + S - 1,
E episodes of 200 steps each from a fresh trainer, warm-up 1000, and the
workload's batch size and update interval (`unshielded`: 256, every 4
steps; `shielded`: 64, every 8). A training tick is, as in the benchmark,
the time between consecutive policy calls within an episode, learner
rounds included. BLAS runs single-threaded, as in the benchmark.
Each round runs both sides on each scenario (or seed) in turn, alternating
by round which goes first, so drift in host speed hits both alike. Prints
each round's per-tick p50 for A and B, the median paired ratio B/A, the
rounds B won, and whether both sides' final states (with `--train`: the
trained weights of every net) are byte-equal. Exits 1 when they are not.
Standard library plus numpy.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import os
import statistics
import sys
import time
from pathlib import Path

# single-threaded BLAS, as the benchmark pins it; set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402


def load(checkout: str, name: str):
    """The marlshield package under `checkout/src`, imported as module `name`."""
    init = Path(checkout).resolve() / "src" / "marlshield" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def safe_starts(pkg, seed: int, count: int):
    """Scenario starts as the benchmark draws them: (p0, v0, p1, v1) with every barrier positive."""
    params, obstacle = pkg.barriers.ShieldParams(), np.zeros(2)
    rng, starts = np.random.default_rng(seed), []
    while len(starts) < count:
        p0, p1 = rng.uniform(-1.5, 1.5, 2), rng.uniform(-1.5, 1.5, 2)
        v0, v1 = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        try:
            if pkg.barriers.h_cooperative(p0 - p1, v0 - v1, params) <= 0:
                continue
            if any(pkg.barriers.h_noncooperative(p - obstacle, v, params) <= 0 for p, v in ((p0, v0), (p1, v1))):
                continue
        except ValueError:  # inside the unsafe ball
            continue
        starts.append((p0, v0, p1, v1))
    return starts


def run(pkg, start, ticks: int, times: list):
    """Run one scenario, appending per-tick seconds to `times`; the bytes of its final states."""
    dyn = pkg.dynamics
    filter_action, step_agent = pkg.shield.filter_action, dyn.step_agent
    params, world = pkg.barriers.ShieldParams(), dyn.WorldConfig(wall_half_extent=100.0)
    obstacles, obs_pos = [dyn.ObstacleSpec([0.0, 0.0])], [(0.0, 0.0)]
    dt, v_max, perf = world.dt, world.v_max, time.perf_counter
    p0, v0, p1, v1 = start
    states = [dyn.AgentState(p0, v0), dyn.AgentState(p1, v1)]
    for _ in range(ticks):
        t0 = perf()
        all_agents = list(enumerate(states))
        pxs = [(s.px, s.py) for s in states]
        new = []
        for i, s in enumerate(states):
            x, y = pxs[i]
            bd, best = math.inf, None
            for tx, ty in [pxs[1 - i]] + obs_pos:
                d = math.hypot(x - tx, y - ty)
                if d < bd:
                    bd, best = d, (tx, ty)
            n = bd if bd > 1e-9 else 1.0
            nominal = np.array(((best[0] - x) / n, (best[1] - y) / n))
            u, _ = filter_action(i, nominal, s, all_agents, obstacles, world, params)
            new.append(step_agent(s, u, dt, v_max))
        states = new
        times.append(perf() - t0)
    return np.array([[s.px, s.py, s.vx, s.vy] for s in states]).tobytes()


# the benchmark's training workloads: (shielded, batch size, update interval)
TRAIN = {"unshielded": (False, 256, 4), "shielded": (True, 64, 8)}


def train(pkg, workload: str, seed: int, episodes: int, times: list):
    """Train one seed as the benchmark workload does, appending per-tick seconds to `times`; the bytes of every net."""
    shielded, batch_size, update_every = TRAIN[workload]
    cfg = pkg.maddpg.TrainerConfig(seed=seed, episodes=episodes, episode_len=200, batch_size=batch_size,
                                   update_every=update_every, warmup_transitions=1000)
    env = pkg.patrol.PatrolEnv(pkg.patrol.default_world(), pkg.barriers.ShieldParams(), episode_len=200)
    trainer = pkg.maddpg.MaddpgTrainer(env, cfg, shield_enabled=shielded)
    nominal, calls, marks, perf = trainer.nominal_actions, [], [0], time.perf_counter

    def timed(obs, sigma):  # the clock at every policy call, on this instance only
        calls.append(perf())
        return nominal(obs, sigma)

    trainer.nominal_actions = timed
    trainer.train(on_episode=lambda ep, metrics: marks.append(len(calls)))
    del trainer.nominal_actions  # the hook closes over the trainer: drop the cycle, free it now
    for a, b in zip(marks, marks[1:]):  # ticks within an episode, as the benchmark reads them
        times.extend(y - x for x, y in zip(calls[a:b], calls[a + 1 : b]))
    nets = trainer.actors + trainer.critics + trainer.target_actors + trainer.target_critics
    return b"".join(net.flat.tobytes() for net in nets)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a", help="checkout A (the base)")
    ap.add_argument("b", help="checkout B (the change)")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--scenarios", type=int, default=32)
    ap.add_argument("--ticks", type=int, default=500)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--train", choices=sorted(TRAIN), help="time this training workload's tick instead")
    ap.add_argument("--seeds", type=int, default=2, help="trainer seeds per round, with --train")
    ap.add_argument("--episodes", type=int, default=10, help="episodes per trainer seed, with --train")
    args = ap.parse_args(argv)
    pkgs = load(args.a, "marlshield_a"), load(args.b, "marlshield_b")
    if args.train:
        jobs, what = range(100, 100 + args.seeds), "trained weights"

        def unit(pkg, seed, times):
            return train(pkg, args.train, seed, args.episodes, times)
    else:
        jobs, what = safe_starts(pkgs[0], args.seed, args.scenarios), "final states"

        def unit(pkg, start, times):
            return run(pkg, start, args.ticks, times)
    ratios, won, finals = [], 0, set()
    for r in range(args.rounds):
        times, final = ([], []), ([], [])
        for job in jobs:  # both sides per job, so host drift hits both alike
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                final[side].append(unit(pkgs[side], job, times[side]))
        finals.update(b"".join(f) for f in final)
        p50 = [statistics.median(t) * 1e6 for t in times]
        ratios.append(p50[1] / p50[0])
        won += p50[1] < p50[0]
        print(f"round {r + 1}: A {p50[0]:.2f} us  B {p50[1]:.2f} us  B/A {ratios[-1]:.4f}")
    equal = len(finals) == 1
    print(f"median B/A {statistics.median(ratios):.4f}; B won {won} of {args.rounds} rounds; "
          f"{what} byte-equal: {'yes' if equal else 'no'}")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
