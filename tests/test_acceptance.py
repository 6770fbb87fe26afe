"""End-to-end acceptance suite.

Each test prints one PASS line on success (run with -s to see them live).
The two training fixtures execute the full protocol — 5 runs x 500
episodes x 200 steps per variant — once per session. The ten runs are
independent, so they train on two worker processes; expect the whole
module to take on the order of 10 minutes on two desktop cores.
"""

import json
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from marlshield import cli
from marlshield.barriers import (
    ShieldParams,
    _row_core,
    cbf_condition_residual,
    h_cooperative,
    h_noncooperative,
)
from marlshield.dynamics import AgentState, ObstacleSpec, WorldConfig, face_clearances, step_agent
from marlshield.maddpg import MaddpgTrainer, TrainerConfig
from marlshield.patrol import PatrolEnv, default_world
from marlshield.qp import QpProblem, solve
from marlshield.shield import filter_action

from qp_oracle import grid_project
from test_qp import random_problem, objective

pytestmark = pytest.mark.slow

D_S = 0.075
TOL = 1e-3
SEEDS = (11, 12, 13, 14, 15)

# Full protocol scale with a lighter update budget (batch size and update
# cadence are run-config knobs); runs/episodes/steps match the criteria.
ACCEPTANCE_TRAINER = dict(
    episodes=500,
    episode_len=200,
    batch_size=64,
    update_every=8,
)


def _train_run(shield_enabled, seed):
    cfg = TrainerConfig(seed=seed, **ACCEPTANCE_TRAINER)
    env = PatrolEnv(default_world(), ShieldParams(), episode_len=cfg.episode_len)
    return MaddpgTrainer(env, cfg, shield_enabled=shield_enabled).train()


@pytest.fixture(scope="module")
def protocol_runs():
    """Per-seed metrics of both variants, keyed by shield_enabled.

    A run depends only on its seed and variant, so training the ten runs
    on two worker processes gives the same metrics as training them in
    turn. Spawned workers inherit no threads from the test process.
    """
    jobs = [(shield, seed) for shield in (True, False) for seed in SEEDS]
    workers = min(2, len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        runs = list(pool.map(_train_run, *zip(*jobs)))
    return {True: runs[: len(SEEDS)], False: runs[len(SEEDS) :]}


@pytest.fixture(scope="module")
def shielded_runs(protocol_runs):
    return protocol_runs[True]


@pytest.fixture(scope="module")
def unshielded_runs(protocol_runs):
    return protocol_runs[False]


def _announce(name):
    print(f"\nACCEPTANCE {name}: PASS")


class TestTrainingProtocol:
    def test_zero_collision_shielded_training(self, shielded_runs):
        episode_collisions = sum(
            r["collisions_episode"] for rows in shielded_runs for r in rows
        )
        step_collisions = sum(r["collisions_step"] for rows in shielded_runs for r in rows)
        worst = min(r["min_dist"] for rows in shielded_runs for r in rows)
        assert episode_collisions == 0
        assert step_collisions == 0
        assert worst >= D_S - TOL
        _announce(
            f"zero-collision shielded training (0/{sum(len(r) for r in shielded_runs)} episodes, "
            f"closest approach {worst:.4f})"
        )

    def test_unshielded_baseline_collides(self, unshielded_runs):
        episodes = sum(len(rows) for rows in unshielded_runs)
        collisions = sum(r["collisions_episode"] for rows in unshielded_runs for r in rows)
        ratio = collisions / episodes
        assert ratio > 0.10
        _announce(
            f"unshielded baseline collides ({collisions}/{episodes} episodes, {100 * ratio:.3f}%)"
        )

    def test_early_reward_ordering(self, shielded_runs, unshielded_runs):
        window = ACCEPTANCE_TRAINER["episodes"] // 10
        for k, (srows, urows) in enumerate(zip(shielded_runs, unshielded_runs)):
            s_mean = np.mean([r["reward_I"] + r["reward_II"] for r in srows[:window]])
            u_mean = np.mean([r["reward_I"] + r["reward_II"] for r in urows[:window]])
            assert s_mean > u_mean, f"run {k}: shielded {s_mean:.0f} <= unshielded {u_mean:.0f}"
        _announce(f"early-reward ordering (first {window} episodes, all {len(SEEDS)} runs)")


class TestForwardInvariance:
    def test_adversarial_scenarios_stay_safe(self):
        # two agents + one obstacle, the barrier pairings the invariance
        # theorem covers; the arena is wide enough that walls stay beyond
        # sensing range for the whole 50 s horizon (drift <= 1.5 + 50*vmax*sqrt(2))
        params = ShieldParams()
        world = WorldConfig(wall_half_extent=100.0)
        obstacles = [ObstacleSpec([0.0, 0.0])]
        obs_pos = [(0.0, 0.0)]
        rng = np.random.default_rng(31415)

        def random_safe():
            while True:
                p0 = rng.uniform(-1.5, 1.5, 2)
                p1 = rng.uniform(-1.5, 1.5, 2)
                v0 = rng.uniform(-1, 1, 2)
                v1 = rng.uniform(-1, 1, 2)
                try:
                    if h_cooperative(p0 - p1, v0 - v1, params) <= 0:
                        continue
                    if any(
                        h_noncooperative(p - o.position, v, params) <= 0
                        for o in obstacles
                        for p, v in ((p0, v0), (p1, v1))
                    ):
                        continue
                except ValueError:
                    continue
                return [AgentState(p0, v0), AgentState(p1, v1)]

        t0 = time.time()
        worst = math.inf
        for _ in range(1000):
            states = random_safe()
            for _ in range(500):
                all_agents = list(enumerate(states))
                new = []
                pxs = [(float(s.position[0]), float(s.position[1])) for s in states]
                for i, s in enumerate(states):
                    x, y = pxs[i]
                    # worst-case nominal: full throttle straight at the nearest entity
                    bd, best = math.inf, None
                    for tx, ty in [pxs[1 - i]] + obs_pos:
                        d = math.hypot(x - tx, y - ty)
                        if d < bd:
                            bd, best = d, (tx, ty)
                    n = bd if bd > 1e-9 else 1.0
                    nominal = np.array(((best[0] - x) / n, (best[1] - y) / n))
                    u, _ = filter_action(i, nominal, s, all_agents, obstacles, world, params)
                    new.append(step_agent(s, u, world.dt, world.v_max))
                states = new
                x0, y0 = float(states[0].position[0]), float(states[0].position[1])
                x1, y1 = float(states[1].position[0]), float(states[1].position[1])
                worst = min(
                    worst, math.hypot(x0 - x1, y0 - y1), math.hypot(x0, y0), math.hypot(x1, y1)
                )
        elapsed = time.time() - t0
        assert worst >= D_S - TOL
        _announce(
            f"forward invariance (1000 adversarial scenarios x 500 steps, "
            f"min distance {worst:.4f}, {elapsed:.0f}s)"
        )


class TestQpCriteria:
    def test_oracle_equivalence(self):
        rng = np.random.default_rng(2718)
        compared = 0
        for k in range(1000):
            p = random_problem(rng, max_rows=6, feasible_bias=bool(k % 2))
            sol = solve(p)
            assert sol.kkt_residual <= 1e-9
            oracle = grid_project(p)
            if oracle is None:
                continue
            _, oracle_obj = oracle
            assert sol.status == "optimal"
            assert objective(p, sol.u_safe) <= oracle_obj + 1e-6
            compared += 1
        assert compared >= 500
        _announce(f"QP oracle equivalence ({compared} of 1000 problems grid-comparable)")

    def test_minimal_interference_bit_exact(self):
        params = ShieldParams()
        world = default_world()
        rng = np.random.default_rng(1618)
        passed = 0
        attempts = 0
        while passed < 10_000:
            attempts += 1
            assert attempts < 200_000
            p0 = rng.uniform(-0.85, 0.85, 2)
            p1 = rng.uniform(-0.85, 0.85, 2)
            if math.hypot(*(p0 - p1)) <= params.d_s + params.margin + 0.01:
                continue
            s0 = AgentState(p0, rng.uniform(-1, 1, 2))
            s1 = AgentState(p1, rng.uniform(-1, 1, 2))
            u = rng.uniform(-1, 1, 2)
            u_safe, report = filter_action(
                0, u, s0, [(0, s0), (1, s1)], world.obstacles, world, params
            )
            if report.status != "passthrough":
                continue
            assert u_safe.tobytes() == u.tobytes()  # bit-exact
            passed += 1
        _announce(f"minimal interference (10000 feasible nominals bit-exact passthrough)")

    def test_constraint_derivation_crosscheck(self):
        # along shielded rollouts, the finite-difference growth residual of
        # every engaged barrier stays within tolerance wherever h > 1e-3
        params = ShieldParams()
        world = default_world()
        env = PatrolEnv(world, params, episode_len=200)
        rng = np.random.default_rng(999)
        delta = 1e-4 * world.dt
        checked = 0
        worst_resid = -math.inf

        def flow(p, v, a, t):
            return p + v * t + 0.5 * a * t * t, v + a * t

        for episode in range(100):
            state, _ = env.reset(int(rng.integers(1 << 31)))
            for _ in range(200):
                nominal = rng.uniform(-1, 1, (2, 2))
                actions = np.empty_like(nominal)
                for i in range(2):
                    actions[i], _ = filter_action(
                        i, nominal[i], state.agents[i], list(enumerate(state.agents)),
                        world.obstacles, world, params,
                    )
                a0, a1 = state.agents
                u0, u1 = actions
                # pair barrier under the executed relative acceleration
                for dp, w, du, dacc, gamma, d_true in [
                    (
                        a0.position - a1.position,
                        a0.velocity - a1.velocity,
                        u0 - u1,
                        params.a_max_self + params.a_max_other,
                        params.gamma_coo,
                        params.d_s,
                    )
                ] + [
                    (
                        ag.position - ob.position,
                        ag.velocity,
                        u,
                        params.a_max_self,
                        params.gamma_non,
                        params.d_s + ob.radius,
                    )
                    for ag, u in ((a0, u0), (a1, u1))
                    for ob in world.obstacles
                ]:
                    r = math.hypot(*dp)
                    gap = r - d_true
                    if gap <= params.margin + 1e-3:
                        continue  # banded or boundary region: enforcement is stricter there
                    d_eff = d_true + params.margin
                    h0 = float(dp @ w) / r + math.sqrt(2 * dacc * (r - d_eff))
                    if h0 <= 1e-3:
                        continue
                    hs = []
                    for t in (-delta, delta):
                        q, s = flow(dp, w, du, t)
                        rr = math.hypot(*q)
                        hs.append(float(q @ s) / rr + math.sqrt(2 * dacc * (rr - d_eff)))
                    h_dot_fd = (hs[1] - hs[0]) / (2 * delta)
                    resid = cbf_condition_residual(h0, h_dot_fd, gamma)
                    worst_resid = max(worst_resid, resid)
                    assert resid <= TOL
                    checked += 1
                state, _, _, done = env.step(state, actions)
                if done:
                    break
        assert checked > 10_000
        _announce(
            f"constraint-derivation cross-check ({checked} barrier-steps, "
            f"worst residual {worst_resid:.2e})"
        )


class TestGradientChecks:
    def test_gradients_match_finite_differences(self):
        from test_nets import numeric_grads, rel_err
        from marlshield.maddpg import joint_input
        from marlshield.nets import Mlp

        rng = np.random.default_rng(555)
        for case in range(20):
            d = int(rng.integers(3, 6))
            hidden = int(rng.integers(4, 8))
            actor = Mlp((d, hidden, 2), head="tanh", head_scale=1.0, rng=rng)
            critic = Mlp((2 * d + 4, hidden, 1), rng=rng)
            obs = rng.normal(size=(3, 2, d))
            acts = rng.uniform(-1, 1, size=(3, 2, 2))
            targets = rng.normal(size=3)

            def critic_loss():
                q = critic.forward(joint_input(obs, acts))[:, 0]
                return float(np.mean((q - targets) ** 2))

            q = critic.forward(joint_input(obs, acts))[:, 0]
            analytic, _ = critic.backward((2.0 / 3) * (q - targets).reshape(-1, 1))
            for a, n in zip(analytic, numeric_grads(critic, critic_loss)):
                assert rel_err(a, n) < 1e-4

            def actor_objective():
                a = actor.forward(obs[:, 0])
                acts2 = acts.copy()
                acts2[:, 0] = a
                return float(np.mean(critic.forward(joint_input(obs, acts2))[:, 0]))

            a = actor.forward(obs[:, 0])
            acts2 = acts.copy()
            acts2[:, 0] = a
            critic.forward(joint_input(obs, acts2))
            _, g_in = critic.backward(np.full((3, 1), 1.0 / 3))
            g_action = g_in[:, 2 * d : 2 * d + 2]
            analytic, _ = actor.backward(g_action)
            for g_a, g_n in zip(analytic, numeric_grads(actor, actor_objective)):
                assert rel_err(g_a, g_n) < 1e-4
        _announce("gradient checks (20 random instances, critic and composed actor paths)")


class TestDeterminism:
    def test_byte_identical_artifacts(self, tmp_path):
        cfg = {
            "trainer": {
                "episodes": 4,
                "episode_len": 30,
                "batch_size": 16,
                "warmup_transitions": 32,
                "update_every": 4,
                "buffer_capacity": 1000,
                "actor_hidden": [16, 16],
                "critic_hidden": [16, 16],
                "seed": 21,
            },
            "runs": 1,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        for out in ("a", "b"):
            rc = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / out)])
            assert rc == 0
        for name in ("metrics.csv", "checkpoint.bin"):
            fa = (tmp_path / "a" / "shielded" / "run00_seed21" / name).read_bytes()
            fb = (tmp_path / "b" / "shielded" / "run00_seed21" / name).read_bytes()
            assert fa == fb, name
        _announce("determinism (byte-identical metrics CSV and checkpoint across reruns)")
