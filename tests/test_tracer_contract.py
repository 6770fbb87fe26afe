"""The benchmark tracer still sees every layer entry point of a shielded step.

perfbench/tracing.py wraps module attributes (`shield._row_core`,
`qp.solve`, `dynamics.step_agent` and `patrol.step_agent`,
`PatrolEnv.step`, ...) from outside the package. A hot path that inlines
one of them or binds it under another name would make the benchmark's
per-layer metrics, and its KKT gate, read zero without failing anything;
this test fails instead. The tracer is only installed and read here.
"""

import sys
from collections import Counter
from pathlib import Path

from marlshield.barriers import ShieldParams
from marlshield.maddpg import MaddpgTrainer, TrainerConfig
from marlshield.patrol import PatrolEnv, default_world

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import Tracer  # noqa: E402


def test_one_shielded_step_calls_every_traced_entry_point():
    cfg = TrainerConfig(
        episodes=2, episode_len=8, batch_size=4, warmup_transitions=4, update_every=2,
        buffer_capacity=64, actor_hidden=(8, 8), critic_hidden=(8, 8), seed=3,
    )
    env = PatrolEnv(default_world(), ShieldParams(), episode_len=cfg.episode_len)
    trainer = MaddpgTrainer(env, cfg, shield_enabled=True)
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
    assert sum(c["maddpg.update"] for c in steps) > 0
    assert len(tracer.qp_outcomes) == 32
