"""Time `qp.solve` of two checkouts side by side in one process, path by path.

Usage: python tools/pair_qp.py A B [--rounds N] [--seeds S] [--episodes E] [--scenarios C] [--ticks T]

Loads `A/src/marlshield` and `B/src/marlshield` under their own module names
(as `pair_tick.py` does) and records, through A's shield, every QP problem
of two sources: shielded training in the benchmark's `train_shielded_b64`
config (batch 64, an update every 8 steps) at trainer seeds 100 to
100 + S - 1, E episodes each, and the adversarial tick of `pair_tick.py`
on C seeded safe starts for T ticks. Each round builds every problem on
both sides and times both sides' `solve` on it in turn, alternating by
round which goes first, so drift in host speed hits both alike. Problems
are grouped by the path A's solve took: fast (the box clip of the nominal,
no candidates), one row, pair, relaxed. Prints, per path, the median over
rounds of each side's per-round p50, the median paired ratio B/A and the
rounds B won, then whether both sides' `u_safe`, slack, active set, status
and iterations are byte-equal on every problem. Exits 1 when they are not.
Which checkout is A has moved per-path ratios by a few percent on code
that is the same on both sides, so run it both ways (A B, then B A).
Standard library plus numpy.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from array import array

import numpy as np

from pair_tick import load, run, safe_starts

PATHS = ("fast", "one row", "pair", "relaxed")


def record(pkg, seeds: int, episodes: int, scenarios: int, ticks: int) -> list:
    """The QP problems A's shield solves, each as (nominal, constraints, box, slack weight, bounds) packed in floats."""
    qp, problems = pkg.qp, []
    solve = qp.solve

    def recording(p):
        problems.append((p.nominal.tobytes(), array("d", [v for r in p.constraints for v in r]).tobytes(),
                         p.box, p.slack_weight, array("d", [v for r in p.bounds for v in r]).tobytes()))
        return solve(p)

    qp.solve = recording
    try:
        for seed in range(100, 100 + seeds):
            cfg = pkg.maddpg.TrainerConfig(seed=seed, episodes=episodes, episode_len=200, batch_size=64,
                                           update_every=8, warmup_transitions=1000)
            env = pkg.patrol.PatrolEnv(pkg.patrol.default_world(), pkg.barriers.ShieldParams(), episode_len=200)
            pkg.maddpg.MaddpgTrainer(env, cfg, shield_enabled=True).train()
        for start in safe_starts(pkg, 1, scenarios):
            run(pkg, start, ticks, [])
    finally:
        qp.solve = solve
    return problems


def build(qp, packed):
    """Side `qp`'s QpProblem of one recorded problem."""
    nominal, cons, box, weight, bounds = packed
    rows = []
    for data in (cons, bounds):
        it = iter(array("d", data).tolist())
        rows.append(tuple(zip(it, it, it)))
    return qp.QpProblem(np.frombuffer(nominal), rows[0], box, weight, rows[1])


def outcome(sol) -> tuple:
    return sol.u_safe.tobytes(), float(sol.slack).hex(), sol.active_set, sol.status, sol.iterations


def path_of(sol) -> str:
    if sol.status != "optimal":
        return "relaxed"
    if sol.iterations == 0:
        return "fast"
    return "one row" if len(sol.active_set) == 1 else "pair"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a", help="checkout A (the base)")
    ap.add_argument("b", help="checkout B (the change)")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seeds", type=int, default=12, help="trainer seeds 100 .. 100 + S - 1")
    ap.add_argument("--episodes", type=int, default=10)
    ap.add_argument("--scenarios", type=int, default=32)
    ap.add_argument("--ticks", type=int, default=500)
    args = ap.parse_args(argv)
    pkgs = load(args.a, "marlshield_a"), load(args.b, "marlshield_b")
    problems = record(pkgs[0], args.seeds, args.episodes, args.scenarios, args.ticks)
    solves = [pkg.qp.solve for pkg in pkgs]
    perf = time.perf_counter
    paths, equal = [], True
    p50s = {path: ([], []) for path in PATHS}
    for r in range(args.rounds):
        times = {path: ([], []) for path in PATHS}
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for k, packed in enumerate(problems):
            sols, ts = [None, None], [0.0, 0.0]
            for side in order:  # both sides per problem, so host drift hits both alike
                problem = build(pkgs[side].qp, packed)
                t0 = perf()
                sols[side] = solves[side](problem)
                ts[side] = perf() - t0
            if r == 0:
                paths.append(path_of(sols[0]))
                equal = equal and outcome(sols[0]) == outcome(sols[1])
            for side in (0, 1):
                times[paths[k]][side].append(ts[side])
        for path in PATHS:
            for side in (0, 1):
                if times[path][side]:
                    p50s[path][side].append(statistics.median(times[path][side]) * 1e6)
    counts = {path: paths.count(path) for path in PATHS}
    print(f"{len(problems)} problems, {args.rounds} rounds")
    for path in PATHS:
        a, b = p50s[path]
        if not a:
            print(f"{path:8} {counts[path]:7d} problems")
            continue
        ratios = [y / x for x, y in zip(a, b)]
        won = sum(y < x for x, y in zip(a, b))
        print(f"{path:8} {counts[path]:7d} problems  A {statistics.median(a):.2f} us  B {statistics.median(b):.2f} us  "
              f"B/A {statistics.median(ratios):.4f}  B won {won} of {args.rounds}")
    print(f"outputs byte-equal: {'yes' if equal else 'no'}")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
