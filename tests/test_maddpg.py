import math

import numpy as np
import pytest

from marlshield.barriers import ShieldParams
from marlshield.maddpg import (
    Batch,
    MaddpgTrainer,
    ReplayBuffer,
    TrainerConfig,
    TrainingDivergenceError,
    actor_update,
    critic_update,
    joint_input,
    td_target,
)
from marlshield.nets import Adam, Mlp
from marlshield.patrol import PatrolEnv, default_world

import learner_oracle


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


def random_batch(rng, s=6, n=2, d=4):
    return Batch(
        obs=rng.normal(size=(s, n, d)),
        actions=rng.uniform(-1, 1, size=(s, n, 2)),
        rewards=rng.normal(size=(s, n)),
        next_obs=rng.normal(size=(s, n, d)),
        done=np.zeros(s, dtype=bool),
    )


class TestReplayBuffer:
    def test_fifo_eviction_preserves_order(self):
        buf = ReplayBuffer(capacity=5, n_agents=1, obs_dim=1)
        for k in range(8):
            buf.add([[k]], [[k, k]], [k], [[k]], False)
        assert len(buf) == 5
        stored = [buf.get(i).rewards[0] for i in range(5)]
        assert stored == [3.0, 4.0, 5.0, 6.0, 7.0]

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
        done = Batch(batch.obs, batch.actions, batch.rewards, batch.next_obs, np.ones(6, dtype=bool))
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
        from test_nets import numeric_grads, rel_err

        numeric = numeric_grads(critic, loss)
        for a, n in zip(analytic, numeric):
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
        from test_nets import numeric_grads, rel_err

        numeric = numeric_grads(actor, objective)
        for g_a, g_n in zip(analytic, numeric):
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
            stored = trainer.buffer.get(t).actions
            for i, r in agents.items():
                assert np.array_equal(stored[i], r.u_safe)

    def test_unshielded_stores_nominal(self):
        trainer = make_trainer(shield=False)
        metrics, rows = trainer.run_episode(reset_seed=3, sigma=0.2, learn=False, record=True)
        for r in rows:
            assert r.shield_status == "off"
            assert np.array_equal(r.u_nominal, r.u_safe)

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

    def test_update_changes_networks(self):
        trainer = make_trainer(episodes=1)
        before = [p.copy() for p in trainer.actors[0].parameters()]
        trainer.train()
        changed = any(
            not np.array_equal(p, b)
            for p, b in zip(trainer.actors[0].parameters(), before)
        )
        assert changed


class TestLearnerOracle:
    ROUNDS = 25

    def seeded_trainer(self):
        trainer = make_trainer(
            shield=False, batch_size=32, warmup_transitions=32, episode_len=60,
            actor_hidden=(16, 12), critic_hidden=(16, 12),
        )
        trainer.run_episode(reset_seed=5, sigma=0.3, learn=False)
        return trainer

    def test_rounds_match_per_tensor_reference(self):
        trainer = self.seeded_trainer()
        reference = self.seeded_trainer()
        lr_a, lr_c = reference.config.lr_actor, reference.config.lr_critic
        actor_opts = [learner_oracle.TensorAdam(a, lr_a) for a in reference.actors]
        critic_opts = [learner_oracle.TensorAdam(c, lr_c) for c in reference.critics]
        start = [net.flat.copy() for net in trainer.actors + trainer.critics]
        for _ in range(self.ROUNDS):
            trainer._update_all()
            learner_oracle.update_all(reference, actor_opts, critic_opts)

        def nets(t):
            return t.actors + t.critics + t.target_actors + t.target_critics

        def joined(arrays):
            return b"".join(a.tobytes() for a in arrays)

        for net, ref in zip(nets(trainer), nets(reference)):
            assert net.flat.tobytes() == joined(ref.parameters())
        for opt, ref in zip(trainer.actor_opts + trainer.critic_opts, actor_opts + critic_opts):
            assert opt.t == ref.t == self.ROUNDS
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
        for g, r in zip(grads, ref_grads):
            assert g.tobytes() == r.tobytes()
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
        trimmed, g_input = net.backward(grad_out, input_grad=False)
        assert g_input is None and g_full.shape == np.shape(x)
        assert len(trimmed) == len(grads) == len(net.parameters())
        for g, t in zip(grads, trimmed):
            assert g.tobytes() == t.tobytes()
        assert grad_out.tobytes() == kept.tobytes()
