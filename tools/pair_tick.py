"""Time the adversarial control tick of two checkouts side by side in one process.

Usage: python tools/pair_tick.py A B [--rounds N] [--scenarios S] [--ticks T] [--seed K]

Loads `A/src/marlshield` and `B/src/marlshield` under their own module names
(the package imports itself only relatively), draws one set of seeded safe
starts, and runs the tick of the benchmark's `adversarial_rollout` workload
on them: two agents and one point obstacle in a 100-unit arena, each
agent's nominal full throttle at its nearest entity, then one filter call
and one `step_agent` per agent (positions are read as the state's floats,
not through its `position` arrays, so the tick is the package's work).
Each round runs both sides on each scenario in turn, alternating by round
which goes first, so drift in host speed hits both alike. Prints each
round's per-tick p50 for A and B, the median paired ratio B/A, the rounds
B won, and whether the final states of both sides are byte-equal. Exits 1
when they are not. Standard library plus numpy.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a", help="checkout A (the base)")
    ap.add_argument("b", help="checkout B (the change)")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--scenarios", type=int, default=32)
    ap.add_argument("--ticks", type=int, default=500)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    pkgs = load(args.a, "marlshield_a"), load(args.b, "marlshield_b")
    starts = safe_starts(pkgs[0], args.seed, args.scenarios)
    ratios, won, finals = [], 0, set()
    for r in range(args.rounds):
        times, final = ([], []), ([], [])
        for start in starts:  # both sides per scenario, so host drift hits both alike
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                final[side].append(run(pkgs[side], start, args.ticks, times[side]))
        finals.update(b"".join(f) for f in final)
        p50 = [statistics.median(t) * 1e6 for t in times]
        ratios.append(p50[1] / p50[0])
        won += p50[1] < p50[0]
        print(f"round {r + 1}: A {p50[0]:.2f} us  B {p50[1]:.2f} us  B/A {ratios[-1]:.4f}")
    equal = len(finals) == 1
    print(f"median B/A {statistics.median(ratios):.4f}; B won {won} of {args.rounds} rounds; "
          f"final states byte-equal: {'yes' if equal else 'no'}")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
