"""The benchmark tracer still sees every layer entry point of a shielded step.

perfbench/tracing.py wraps module attributes (`shield._row_core`,
`qp.solve`, `dynamics.step_agent` and `patrol.step_agent`,
`PatrolEnv.step`, ...) from outside the package. A hot path that inlines
one of them or binds it under another name would make the benchmark's
per-layer metrics, and its KKT gate, read zero without failing anything;
this test fails instead. Every KKT value the tracer gates on must also be
the certificate of its own solve, finite and within the gate. It also
pins the policy tick to one stacked pass: `nets.forward*` spans
(Mlp.forward) may appear only inside `maddpg.update`.
The tracer is only installed and read here.
"""

import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from marlshield import dynamics, qp, shield
from marlshield.barriers import ShieldParams
from marlshield.dynamics import AgentState, ObstacleSpec, WorldConfig
from marlshield.maddpg import MaddpgTrainer, TrainerConfig
from marlshield.patrol import PatrolEnv, default_world

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import Tracer  # noqa: E402


def record_solves(monkeypatch):
    """(problem, solution) of every qp.solve, recorded beneath the tracer's wrapper."""
    solved, solve = [], qp.solve
    monkeypatch.setattr(qp, "solve", lambda p: solved.append((p, solve(p))) or solved[-1][1])
    return solved


def assert_kkt_outcomes_certify(tracer, solved):
    assert len(tracer.qp_outcomes) == len(solved)
    for (_, status, _, kkt, _), (problem, sol) in zip(tracer.qp_outcomes, solved):
        assert status == sol.status
        assert math.isfinite(kkt) and kkt <= 1e-9
        assert kkt == qp.kkt_check(problem, sol)


def test_one_shielded_step_calls_every_traced_entry_point(monkeypatch):
    cfg = TrainerConfig(
        episodes=2, episode_len=8, batch_size=4, warmup_transitions=4, update_every=2,
        buffer_capacity=64, actor_hidden=(8, 8), critic_hidden=(8, 8), seed=3,
    )
    env = PatrolEnv(default_world(), ShieldParams(), episode_len=cfg.episode_len)
    trainer = MaddpgTrainer(env, cfg, shield_enabled=True)
    solved = record_solves(monkeypatch)
    with Tracer() as tracer:
        trainer.train()
    per_tick = {}
    for name, tick in zip(tracer.names, tracer.ticks):
        per_tick.setdefault(tick, Counter())[name] += 1
    steps = [per_tick[t] for t in range(1, trainer.global_step + 1)]
    assert len(steps) == 16
    for counts in steps:
        # 2 agents x (1 peer + 3 obstacles + 4 wall faces) rows in the stock arena
        assert counts["barriers.row_core"] == 16
        assert counts["qp.solve"] == 2
        assert counts["shield.filter_action"] == 2
        assert counts["dynamics.step_agent"] == 2
        assert counts["patrol.step"] == 1
        # one stacked policy pass per step, never a per-agent Mlp.forward
        assert counts["maddpg.nominal_actions"] == 1
    assert sum(c["maddpg.update"] for c in steps) > 0
    assert len(tracer.qp_outcomes) == 32
    assert_kkt_outcomes_certify(tracer, solved)

    def in_update(k):
        while k >= 0 and tracer.names[k] != "maddpg.update":
            k = tracer.parents[k]
        return k >= 0

    forwards = [k for k, name in enumerate(tracer.names) if name.startswith("nets.forward")]
    assert forwards and all(in_update(k) for k in forwards)


def test_adversarial_ticks_call_row_core_per_in_range_entity(monkeypatch):
    # the adversarial_rollout workload's tick: wide arena, one obstacle,
    # walls out of range, full-throttle nominal at the nearest entity; the
    # filter's inline range tests must still route every row through the
    # traced `_row_core` and every call through one traced `qp.solve`
    world, params = WorldConfig(wall_half_extent=100.0), ShieldParams()
    obstacles = [ObstacleSpec([0.0, 0.0])]
    rng = np.random.default_rng(8)
    expected = []
    solved = record_solves(monkeypatch)
    with Tracer() as tracer:
        for _ in range(12):
            states = [AgentState(rng.uniform(-2.0, 2.0, 2), rng.uniform(-1, 1, 2)) for _ in range(2)]
            for _ in range(40):
                all_agents = list(enumerate(states))
                new = []
                for i, s in enumerate(states):
                    targets = [(states[1 - i].px, states[1 - i].py), (0.0, 0.0)]
                    dists = [math.hypot(tx - s.px, ty - s.py) for tx, ty in targets]
                    (tx, ty), n = targets[int(np.argmin(dists))], max(min(dists), 1e-9)
                    nominal = np.array(((tx - s.px) / n, (ty - s.py) / n))
                    u, report = shield.filter_action(i, nominal, s, all_agents, obstacles, world, params)
                    expected.append(sum(d <= params.r_sense for d in dists))
                    assert report.constraints_built["wall"] == 0
                    new.append(dynamics.step_agent(s, u, world.dt, world.v_max))
                states = new
    children = Counter(zip(tracer.parents, tracer.names))
    calls = [k for k, name in enumerate(tracer.names) if name == "shield.filter_action"]
    assert len(calls) == len(expected) == 12 * 40 * 2
    for k, in_range in zip(calls, expected):
        assert children[k, "qp.solve"] == 1
        assert children[k, "barriers.row_core"] == in_range
    assert [n for n, *_ in tracer.qp_outcomes] == [n for n, _ in tracer.shield_outcomes]
    assert Counter(expected)[1] > 50 and Counter(expected)[2] > 50
    assert_kkt_outcomes_certify(tracer, solved)
