import gc
import math
import weakref

import numpy as np
import pytest

from marlshield.barriers import ShieldParams
from marlshield.checkpoint import attach_networks, load_checkpoint, save_checkpoint
from marlshield.maddpg import (
    Batch,
    MaddpgTrainer,
    ReplayBuffer,
    TrainerConfig,
    TrainingDivergenceError,
    actor_update,
    critic_update,
    td_target,
)
from marlshield.dynamics import AgentState
from marlshield.nets import Adam, Mlp, MlpStack
from marlshield.patrol import EnvState, PatrolEnv, default_world

import learner_oracle
from learner_oracle import joint_input


def tiny_config(**kwargs):
    base = dict(
        episodes=2,
        episode_len=15,
        batch_size=8,
        warmup_transitions=8,
        update_every=2,
        buffer_capacity=500,
        actor_hidden=(8, 8),
        critic_hidden=(8, 8),
        seed=0,
    )
    base.update(kwargs)
    return TrainerConfig(**base)


def make_trainer(shield=True, **kwargs):
    env = PatrolEnv(default_world(), ShieldParams(), episode_len=kwargs.get("episode_len", 15))
    return MaddpgTrainer(env, tiny_config(**kwargs), shield_enabled=shield)


BUFFER_FIELDS = ("obs", "actions", "rewards", "next_obs", "done")


def stored(buf, k) -> dict:
    """k-th oldest transition in buf (0 = oldest surviving), read from its arrays by age."""
    assert 0 <= k < len(buf)
    i = (buf._pos - len(buf) + k) % buf.capacity
    return {f: getattr(buf, "_" + f)[i] for f in BUFFER_FIELDS}


def random_batch(rng, s=6, n=2, d=4):
    obs, actions = rng.normal(size=(s, n, d)), rng.uniform(-1, 1, size=(s, n, 2))
    return Batch(
        obs=obs,
        actions=actions,
        rewards=rng.normal(size=(s, n)),
        next_obs=rng.normal(size=(s, n, d)),
        done=np.zeros(s, dtype=bool),
        joint=joint_input(obs, actions),
    )


class TestReplayBuffer:
    def test_fifo_eviction_preserves_order(self):
        buf = ReplayBuffer(capacity=5, n_agents=1, obs_dim=1)
        for k in range(8):
            buf.add([[k]], [[k, k]], [k], [[k]], False)
        assert len(buf) == 5
        assert [stored(buf, i)["rewards"][0] for i in range(5)] == [3.0, 4.0, 5.0, 6.0, 7.0]

    def test_uniform_sampling_covers_full_buffer(self):
        cap = 50
        buf = ReplayBuffer(capacity=cap, n_agents=1, obs_dim=1)
        for k in range(cap):
            buf.add([[0]], [[0, 0]], [k], [[0]], False)
        rng = np.random.default_rng(77)
        seen = set()
        for _ in range(10):
            batch = buf.sample(cap, rng)
            seen.update(batch.rewards[:, 0].astype(int).tolist())
        assert seen == set(range(cap))

    def test_unwritten_slots_are_never_read(self):
        # the row matrix starts uninitialized; poison it so a read of an unwritten slot shows
        cap, n, d = 7, 2, 3
        buf = ReplayBuffer(capacity=cap, n_agents=n, obs_dim=d)
        buf._rows.fill(np.nan)
        rng = np.random.default_rng(78)
        added = []
        for k in range(2 * cap + 3):
            t = (rng.normal(size=(n, d)), rng.normal(size=(n, 2)), rng.normal(size=n),
                 rng.normal(size=(n, d)), bool(k % 2))
            buf.add(*t)
            added.append(t)
            batch = buf.sample(16, rng)
            for f in (*BUFFER_FIELDS[:4], "joint"):
                assert np.isfinite(getattr(batch, f)).all()
            for age, t in enumerate(added[-len(buf):]):
                got = stored(buf, age)
                for f, v in zip(BUFFER_FIELDS, t):
                    assert np.array_equal(got[f], v)
        assert len(buf) == cap

    def test_sampled_rows_keep_the_layout_across_wraparound(self):
        cap, n, d = 7, 2, 3
        buf = ReplayBuffer(capacity=cap, n_agents=n, obs_dim=d)
        rng = np.random.default_rng(79)
        for k in range(3 * cap + 2):
            buf.add(rng.normal(size=(n, d)), rng.normal(size=(n, 2)), rng.normal(size=n),
                    rng.normal(size=(n, d)), bool(k % 3 == 0))
            replay = np.random.default_rng()
            replay.bit_generator.state = rng.bit_generator.state
            batch = buf.sample(9, rng)
            ages = replay.integers(0, len(buf), size=9)
            assert batch.joint.tobytes() == joint_input(batch.obs, batch.actions).tobytes()
            assert np.shares_memory(batch.joint, batch.obs) and np.shares_memory(batch.joint, batch.actions)
            for row, age in enumerate(ages):
                want = stored(buf, int(age))
                for f in BUFFER_FIELDS:
                    assert np.asarray(getattr(batch, f)[row]).tobytes() == np.asarray(want[f]).tobytes()

    @pytest.mark.parametrize(
        "transition",
        [
            # the first would store one agent's row in both slots; each has one wrong shape after it
            (np.arange(3.0), [0.5, -0.5], 1.0, np.arange(3.0), False),
            (np.zeros((2, 3)), [0.5, -0.5], [1.0, 2.0], np.zeros((2, 3)), False),
            (np.zeros((2, 3)), np.zeros((2, 2)), 1.0, np.zeros((2, 3)), False),
            (np.zeros((2, 3)), np.zeros((2, 2)), [1.0, 2.0], np.zeros((1, 3)), False),
            (np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((2, 3)), False),
            (np.zeros((2, 3)), np.zeros((2, 3)), [1.0, 2.0], np.zeros((2, 3)), False),
        ],
    )
    def test_broadcasting_transitions_rejected(self, transition):
        buf = ReplayBuffer(capacity=4, n_agents=2, obs_dim=3)
        buf.add(np.ones((2, 3)), np.ones((2, 2)), [1.0, 1.0], np.ones((2, 3)), True)
        row = buf._rows[0].copy()
        with pytest.raises(ValueError, match="transition shapes"):
            buf.add(*transition)
        assert buf._rows[0].tobytes() == row.tobytes()
        assert (bool(buf._done[0]), buf._pos, len(buf)) == (True, 1, 1)

    def test_empty_sample_rejected(self):
        buf = ReplayBuffer(capacity=4, n_agents=1, obs_dim=1)
        with pytest.raises(ValueError):
            buf.sample(1, np.random.default_rng(0))


class TestTdTarget:
    def build(self, rng, d=4):
        actors = [Mlp((d, 6, 2), head="tanh", rng=rng) for _ in range(2)]
        critic = Mlp((2 * d + 4, 6, 1), rng=rng)
        return actors, critic

    def test_myopic_limit(self):
        rng = np.random.default_rng(40)
        actors, critic = self.build(rng)
        batch = random_batch(rng)
        y = td_target(batch, 0, actors, critic, discount=1e-12)
        np.testing.assert_allclose(y, batch.rewards[:, 0], atol=1e-9)

    def test_terminal_ignores_bootstrap(self):
        rng = np.random.default_rng(41)
        actors, critic = self.build(rng)
        batch = random_batch(rng)
        done = Batch(batch.obs, batch.actions, batch.rewards, batch.next_obs, np.ones(6, dtype=bool), batch.joint)
        y = td_target(done, 1, actors, critic, discount=0.95)
        np.testing.assert_array_equal(y, batch.rewards[:, 1])

    def test_hand_computed_single_sample(self):
        # stub networks with hand-set weights: actor returns tanh(sum(obs)) per
        # component, critic returns the sum of its inputs
        d = 2
        actors = []
        for _ in range(2):
            a = Mlp((d, 2), head="tanh", head_scale=1.0)
            a.weights[0][:] = 1.0
            a.biases[0][:] = 0.0
            actors.append(a)
        critic = Mlp((2 * d + 4, 1))
        critic.weights[0][:] = 1.0
        critic.biases[0][:] = 0.0
        obs = np.array([[[0.1, 0.2], [0.3, -0.1]]])
        batch = Batch(
            obs=obs,
            actions=np.zeros((1, 2, 2)),
            rewards=np.array([[1.5, -0.5]]),
            next_obs=obs,
            done=np.array([False]),
            joint=joint_input(obs, np.zeros((1, 2, 2))),
        )
        a1 = math.tanh(0.3)
        a2 = math.tanh(0.2)
        q = 0.1 + 0.2 + 0.3 - 0.1 + 2 * a1 + 2 * a2
        expected = 1.5 + 0.9 * q
        y = td_target(batch, 0, actors, critic, discount=0.9)
        assert y[0] == pytest.approx(expected, abs=1e-12)


class TestCriticUpdate:
    def test_exact_targets_leave_params(self):
        rng = np.random.default_rng(42)
        critic = Mlp((12, 6, 1), rng=rng)
        opt = Adam(critic, lr=1e-3)
        batch = random_batch(rng)
        q = critic.forward(joint_input(batch.obs, batch.actions))[:, 0]
        before = [p.copy() for p in critic.parameters()]
        loss = critic_update(critic, opt, batch, q.copy())
        assert loss == pytest.approx(0.0, abs=1e-20)
        for p, b in zip(critic.parameters(), before):
            assert np.array_equal(p, b)

    def test_loss_decreases_on_frozen_batch(self):
        rng = np.random.default_rng(43)
        critic = Mlp((12, 16, 1), rng=rng)
        opt = Adam(critic, lr=1e-2)
        batch = random_batch(rng, s=16)
        targets = rng.normal(size=16)
        losses = [critic_update(critic, opt, batch, targets) for _ in range(100)]
        assert losses[-1] < 0.2 * losses[0]

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(44)
        critic = Mlp((12, 5, 1), rng=rng)
        batch = random_batch(rng, s=4)
        targets = rng.normal(size=4)
        x = joint_input(batch.obs, batch.actions)

        def loss():
            q = critic.forward(x)[:, 0]
            return float(np.mean((q - targets) ** 2))

        q = critic.forward(x)[:, 0]
        analytic, _ = critic.backward((2.0 / 4) * (q - targets).reshape(-1, 1))
        from test_nets import numeric_grads, rel_err, tensors

        numeric = numeric_grads(critic, loss)
        for a, n in zip(tensors(critic, analytic), numeric):
            assert rel_err(a, n) < 1e-4


class QuadraticCritic:
    """Duck-typed value stub: Q = -|u_focal - u_star|^2 for a fixed agent."""

    def __init__(self, agent, obs_dim, n_agents, u_star):
        self.agent = agent
        self.obs_dim = obs_dim
        self.n_agents = n_agents
        self.u_star = np.asarray(u_star, dtype=float)
        self._u = None

    def forward(self, x):
        start = self.n_agents * self.obs_dim + self.agent * 2
        self._u = x[:, start : start + 2]
        q = -np.sum((self._u - self.u_star) ** 2, axis=1, keepdims=True)
        self._x_shape = x.shape
        return q

    def backward(self, grad_out, param_grads=True):
        g = np.zeros(self._x_shape)
        start = self.n_agents * self.obs_dim + self.agent * 2
        g[:, start : start + 2] = grad_out * (-2.0) * (self._u - self.u_star)
        return [], g


class TestActorUpdate:
    def test_constant_critic_gives_zero_gradient(self):
        rng = np.random.default_rng(45)
        actor = Mlp((4, 6, 2), head="tanh", rng=rng)
        critic = Mlp((12, 6, 1), rng=rng)
        # zero the first-layer rows fed by the focal action slice
        critic.weights[0][8:10, :] = 0.0
        opt = Adam(actor, lr=1e-3)
        batch = random_batch(rng)
        before = [p.copy() for p in actor.parameters()]
        norm = actor_update(actor, critic, opt, batch, agent=0)
        assert norm == pytest.approx(0.0, abs=1e-15)
        for p, b in zip(actor.parameters(), before):
            assert np.array_equal(p, b)

    def test_converges_to_quadratic_optimum(self):
        rng = np.random.default_rng(46)
        actor = Mlp((4, 16, 2), head="tanh", rng=rng)
        critic = QuadraticCritic(agent=0, obs_dim=4, n_agents=2, u_star=[0.4, -0.3])
        opt = Adam(actor, lr=5e-3)
        batch = random_batch(rng, s=12)
        for _ in range(800):
            actor_update(actor, critic, opt, batch, agent=0)
        out = actor.forward(batch.obs[:, 0])
        np.testing.assert_allclose(out, np.tile([0.4, -0.3], (12, 1)), atol=0.05)

    def test_composed_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(47)
        actor = Mlp((4, 5, 2), head="tanh", rng=rng)
        critic = Mlp((12, 6, 1), rng=rng)
        batch = random_batch(rng, s=5)

        def objective():
            a = actor.forward(batch.obs[:, 0])
            acts = batch.actions.copy()
            acts[:, 0] = a
            return float(np.mean(critic.forward(joint_input(batch.obs, acts))[:, 0]))

        a = actor.forward(batch.obs[:, 0])
        acts = batch.actions.copy()
        acts[:, 0] = a
        critic.forward(joint_input(batch.obs, acts))
        _, g_in = critic.backward(np.full((5, 1), 1.0 / 5))
        g_action = g_in[:, 8:10]
        analytic, _ = actor.backward(g_action)
        from test_nets import numeric_grads, rel_err, tensors

        numeric = numeric_grads(actor, objective)
        for g_a, g_n in zip(tensors(actor, analytic), numeric):
            assert rel_err(g_a, g_n) < 1e-4


class TestTrainerLoop:
    def test_same_seed_identical_metrics(self):
        rows1 = make_trainer().train()
        rows2 = make_trainer().train()
        assert rows1 == rows2

    def test_shielded_actions_are_stored(self):
        trainer = make_trainer()
        metrics, rows = trainer.run_episode(reset_seed=3, sigma=0.2, learn=False, record=True)
        by_step = {}
        for r in rows:
            by_step.setdefault(r.step, {})[r.agent_id] = r
        for t, agents in by_step.items():
            actions = stored(trainer.buffer, t)["actions"]
            for i, r in agents.items():
                assert np.array_equal(actions[i], r.u_safe)

    def test_unshielded_stores_nominal(self):
        trainer = make_trainer(shield=False)
        metrics, rows = trainer.run_episode(reset_seed=3, sigma=0.2, learn=False, record=True)
        for r in rows:
            assert r.shield_status == "off"
            assert np.array_equal(r.u_nominal, r.u_safe)

    @pytest.mark.parametrize("shield", [True, False], ids=["shielded", "unshielded"])
    def test_recording_matches_unrecorded_metrics(self, shield):
        plain, _ = make_trainer(shield=shield).run_episode(reset_seed=3, sigma=0.2, learn=False)
        trainer = make_trainer(shield=shield)
        metrics, rows = trainer.run_episode(reset_seed=3, sigma=0.2, learn=False, record=True)
        assert metrics == plain
        env = trainer.env
        by_step = {}
        for r in rows:
            by_step.setdefault(r.step, []).append(r)
        for pair in by_step.values():
            state = EnvState(agents=tuple(AgentState(r.position, r.velocity) for r in pair))
            for r in pair:
                assert r.min_entity_distance == env.min_entity_distance(state, r.agent_id)
        assert metrics["min_dist"] == min(r.min_entity_distance for r in rows)
        assert metrics["reward_I"] + metrics["reward_II"] == sum(r.reward for r in rows)

    @pytest.mark.parametrize("record", [False, True], ids=["plain", "recorded"])
    @pytest.mark.parametrize("shield", [True, False], ids=["shielded", "unshielded"])
    def test_one_clearance_scan_per_agent_step(self, monkeypatch, shield, record):
        scan, step = PatrolEnv.entity_distances, PatrolEnv.step
        counts = {"steps": 0, "in_step": 0, "elsewhere": 0}
        inside = []

        def counted_scan(env, state, agent_idx):
            counts["in_step" if inside else "elsewhere"] += 1
            return scan(env, state, agent_idx)

        def counted_step(env, state, actions):
            counts["steps"] += 1
            inside.append(True)
            try:
                return step(env, state, actions)
            finally:
                inside.pop()

        monkeypatch.setattr(PatrolEnv, "entity_distances", counted_scan)
        monkeypatch.setattr(PatrolEnv, "step", counted_step)
        trainer = make_trainer(shield=shield)
        trainer.run_episode(reset_seed=3, sigma=0.2, learn=False, record=record)
        n = trainer.env.n_agents
        assert counts["steps"] > 0
        assert counts == {"steps": counts["steps"], "in_step": n * counts["steps"], "elsewhere": 0}

    def test_actions_respect_box(self):
        trainer = make_trainer()
        state, obs = trainer.env.reset(9)
        for _ in range(20):
            acts = trainer.nominal_actions(obs, sigma=0.5)
            assert np.all(np.abs(acts) <= trainer.env.world.a_max)

    def test_divergence_aborts_with_episode(self):
        trainer = make_trainer(episodes=1, warmup_transitions=4, update_every=1)
        trainer.critics[0].weights[0][:] = np.nan
        with pytest.raises(TrainingDivergenceError) as err:
            trainer.train()
        assert err.value.episode == 0

    def test_dropped_trainer_is_freed_without_the_cycle_collector(self):
        """No net, stack or buffer refers back to itself or its trainer, so a dropped trainer's
        nets and cached activations go at once, not at the next cyclic collection."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            trainer = make_trainer(episodes=2)
            trainer.train()
            refs = [weakref.ref(obj) for obj in (trainer, trainer.actors[0], trainer.critics[0],
                                                 trainer.target_actors[0], trainer.policy, trainer.buffer)]
            del trainer
            assert [ref() is None for ref in refs] == [True] * len(refs)
        finally:
            if enabled:
                gc.enable()

    def test_update_changes_networks(self):
        trainer = make_trainer(episodes=1)
        before = [p.copy() for p in trainer.actors[0].parameters()]
        trainer.train()
        changed = any(
            not np.array_equal(p, b)
            for p, b in zip(trainer.actors[0].parameters(), before)
        )
        assert changed


class TestStackedPolicy:
    """nominal_actions runs the actors as one MlpStack; the per-tensor learner oracle, net by net, is the reference."""

    @staticmethod
    def per_net(trainer, obs, sigma, rng):
        a_max = trainer.env.world.a_max
        acts = np.concatenate([learner_oracle.forward(actor, o[None])[0] for actor, o in zip(trainer.actors, obs)])
        if sigma > 0.0:
            acts = acts + rng.normal(0.0, sigma, size=acts.shape)
        return np.clip(acts, -a_max, a_max)

    def assert_matches_per_net(self, trainer):
        for row, actor in zip(trainer.policy.flat, trainer.actors):
            assert actor.flat.__array_interface__ == row.__array_interface__
            assert all(np.shares_memory(p, trainer.policy.flat) for p in actor.parameters())
        rng = np.random.default_rng(0)
        state, obs = trainer.env.reset(21)
        inputs = [obs] + [rng.normal(size=obs.shape) * s for s in (0.5, 3.0, 30.0)]
        for _ in range(30):
            state, obs, _, _ = trainer.env.step(state, rng.uniform(-1.0, 1.0, size=(2, 2)))
            inputs.append(obs)
        for obs in inputs:
            kept = obs.copy()
            for sigma in (0.0, 0.3):
                ref_rng = np.random.default_rng()
                ref_rng.bit_generator.state = trainer.rng.bit_generator.state
                got = trainer.nominal_actions(obs, sigma)
                assert got.tobytes() == self.per_net(trainer, obs, sigma, ref_rng).tobytes()
                assert trainer.rng.bit_generator.state == ref_rng.bit_generator.state
            assert obs.tobytes() == kept.tobytes()

    def test_fresh_trainer(self):
        self.assert_matches_per_net(make_trainer())

    def test_after_training(self):
        trainer = make_trainer(episodes=3)
        start = trainer.policy.flat.copy()
        trainer.train()
        assert not np.array_equal(trainer.policy.flat, start)
        self.assert_matches_per_net(trainer)

    @pytest.mark.parametrize("trained", [False, True], ids=["fresh", "trained"])
    def test_benchmark_shapes(self, trained):
        # the training workloads' actors, so the BLAS kernels the policy tick runs are the ones pinned
        trainer = make_trainer(episodes=3, actor_hidden=(64, 64), critic_hidden=(64, 64))
        assert trainer.actors[0].dims == (14, 64, 64, 2)
        if trained:
            start = trainer.policy.flat.copy()
            trainer.train()
            assert not np.array_equal(trainer.policy.flat, start)
        self.assert_matches_per_net(trainer)

    def test_after_attaching_per_agent_heads(self, tmp_path):
        source = make_trainer(episodes=1)
        source.train()
        source.actors[0].head_scale = 0.6
        source.actors[1].head, source.actors[1].head_scale = "linear", 1.7
        source.actors[1].flat *= 300.0  # outputs beyond the box, so the clip acts
        save_checkpoint(tmp_path / "ckpt.bin", source, "{}")
        trainer = make_trainer(seed=5)
        attach_networks(trainer, load_checkpoint(tmp_path / "ckpt.bin")[1])
        assert [(a.head, a.head_scale) for a in trainer.actors] == [("tanh", 0.6), ("linear", 1.7)]
        assert trainer.policy.flat.tobytes() == np.stack([a.flat for a in source.actors]).tobytes()
        self.assert_matches_per_net(trainer)
        _, obs = trainer.env.reset(4)
        raw = trainer.policy.forward(obs)
        assert np.abs(raw[1]).max() > trainer.env.world.a_max
        assert np.abs(raw[0]).max() <= 0.6

    def assert_raw_matches_oracle(self, trainer):
        """The stacked forward, unclipped, against the oracle net by net; returns it."""
        _, obs = trainer.env.reset(4)
        raw = trainer.policy.forward(obs)
        ref = np.stack([learner_oracle.forward(actor, o[None])[0][0] for actor, o in zip(trainer.actors, obs)])
        assert raw.tobytes() == ref.tobytes()
        return raw

    def test_tanh_heads_with_different_scales(self):
        # same head, different scales: each leading row takes its own net's head
        trainer = make_trainer(episodes=1)
        trainer.train()
        trainer.actors[0].head_scale = 0.6
        trainer.policy.flat *= 300.0  # saturate both tanh heads, so the scale sets the output
        raw = self.assert_raw_matches_oracle(trainer)
        assert 0.5 < np.abs(raw[0]).max() <= 0.6 < np.abs(raw[1]).max() <= 1.0
        self.assert_matches_per_net(trainer)

    def test_all_linear_heads(self):
        trainer = make_trainer(episodes=1)
        trainer.train()
        for actor in trainer.actors:
            actor.head = "linear"
        trainer.policy.flat *= 300.0  # outputs beyond the box, so the clip acts
        raw = self.assert_raw_matches_oracle(trainer)
        assert np.abs(raw).max() > trainer.env.world.a_max
        self.assert_matches_per_net(trainer)

    def test_rows_are_decentralized(self):
        trainer = make_trainer()
        _, obs = trainer.env.reset(3)
        base = trainer.policy.forward(obs)
        moved = obs.copy()
        moved[1] += 0.25
        out = trainer.policy.forward(moved)
        assert out[0].tobytes() == base[0].tobytes() and not np.array_equal(out[1], base[1])
        trainer.actors[0].flat += 0.1
        out = trainer.policy.forward(obs)
        assert out[1].tobytes() == base[1].tobytes() and not np.array_equal(out[0], base[0])

    def test_rejects_mismatched_nets_and_inputs(self):
        with pytest.raises(ValueError):
            MlpStack([Mlp((4, 3, 2)), Mlp((4, 5, 2))])
        stack = MlpStack([Mlp((4, 3, 2)), Mlp((4, 3, 2))])
        for x in (np.zeros((1, 4)), np.zeros((3, 4)), np.zeros((2, 5)), np.zeros(4), np.zeros((4, 2)), np.zeros(8)):
            with pytest.raises(ValueError):
                stack.forward(x)


class TestLearnerOracle:
    @staticmethod
    def seeded_trainer(hidden, batch_size, episode_len):
        trainer = make_trainer(
            shield=False, batch_size=batch_size, warmup_transitions=batch_size, episode_len=episode_len,
            actor_hidden=hidden, critic_hidden=hidden,
        )
        trainer.run_episode(reset_seed=5, sigma=0.3, learn=False)
        return trainer

    def test_rounds_match_per_tensor_reference(self):
        self.assert_rounds_match((16, 12), batch_size=32, episode_len=60, rounds=25)

    @pytest.mark.parametrize("batch_size", [64, 256])
    def test_rounds_match_at_benchmark_shapes(self, batch_size):
        # the training workloads' nets and batches, so the BLAS kernels they run are the ones pinned
        self.assert_rounds_match((64, 64), batch_size=batch_size, episode_len=300, rounds=6)

    def assert_rounds_match(self, hidden, batch_size, episode_len, rounds):
        trainer = self.seeded_trainer(hidden, batch_size, episode_len)
        reference = self.seeded_trainer(hidden, batch_size, episode_len)
        assert len(trainer.buffer) >= batch_size
        lr_a, lr_c = reference.config.lr_actor, reference.config.lr_critic
        actor_opts = [learner_oracle.TensorAdam(a, lr_a) for a in reference.actors]
        critic_opts = [learner_oracle.TensorAdam(c, lr_c) for c in reference.critics]
        start = [net.flat.copy() for net in trainer.actors + trainer.critics]
        for _ in range(rounds):
            trainer._update_all()
            learner_oracle.update_all(reference, actor_opts, critic_opts)

        def nets(t):
            return t.actors + t.critics + t.target_actors + t.target_critics

        def joined(arrays):
            return b"".join(a.tobytes() for a in arrays)

        for net, ref in zip(nets(trainer), nets(reference)):
            assert net.flat.tobytes() == joined(ref.parameters())
        for opt, ref in zip(trainer.actor_opts + trainer.critic_opts, actor_opts + critic_opts):
            assert opt.t == ref.t == rounds
            assert opt.m.tobytes() == joined(ref.m)
            assert opt.v.tobytes() == joined(ref.v)
        for net, before in zip(trainer.actors + trainer.critics, start):
            assert not np.array_equal(net.flat, before)

    @pytest.mark.parametrize("head", ["linear", "tanh"])
    @pytest.mark.parametrize("single", [False, True])
    def test_backward_input_gradient_without_param_grads(self, head, single):
        rng = np.random.default_rng(48)
        net = Mlp((6, 9, 7, 2), head=head, head_scale=0.8, rng=rng)
        x = rng.normal(size=6 if single else (5, 6))
        out = net.forward(x)
        ref_out, acts = learner_oracle.forward(net, np.atleast_2d(x))
        grad_out = rng.normal(size=out.shape)
        kept = grad_out.copy()
        grads, g_full = net.backward(grad_out)
        skipped, g_input = net.backward(grad_out, param_grads=False)
        ref_grads, ref_g = learner_oracle.backward(net, acts, np.atleast_2d(grad_out))
        if single:
            ref_out, ref_g = ref_out[0], ref_g[0]
        assert skipped is None
        assert out.tobytes() == ref_out.tobytes()
        assert g_input.tobytes() == g_full.tobytes() == ref_g.tobytes()
        assert grads is net.grad and grads.tobytes() == b"".join(r.tobytes() for r in ref_grads)
        assert grad_out.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("head", ["linear", "tanh"])
    @pytest.mark.parametrize("single", [False, True])
    def test_backward_param_grads_without_input_grad(self, head, single):
        rng = np.random.default_rng(49)
        net = Mlp((6, 9, 7, 2), head=head, head_scale=0.8, rng=rng)
        x = rng.normal(size=6 if single else (5, 6))
        out = net.forward(x)
        grad_out = rng.normal(size=out.shape)
        kept = grad_out.copy()
        grads, g_full = net.backward(grad_out)
        grads = grads.copy()
        net.grad.fill(np.nan)
        trimmed, g_input = net.backward(grad_out, input_grad=False)
        assert g_input is None and g_full.shape == np.shape(x)
        assert trimmed is net.grad and trimmed.tobytes() == grads.tobytes()
        assert grad_out.tobytes() == kept.tobytes()
