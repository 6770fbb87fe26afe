import math

import numpy as np
import pytest

from marlshield.barriers import ShieldParams
from marlshield.checkpoint import (
    CheckpointMismatchError,
    attach_networks,
    load_checkpoint,
    save_checkpoint,
)
from marlshield.maddpg import MaddpgTrainer, TrainerConfig
from marlshield.nets import Adam, Mlp, flat_size, soft_update
from marlshield.patrol import PatrolEnv, default_world

import learner_oracle


def numeric_grads(net, loss_fn, eps=1e-5):
    """Central finite differences of loss_fn() w.r.t. every parameter entry."""
    grads = []
    for p in net.parameters():
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            hi = loss_fn()
            flat[j] = orig - eps
            lo = loss_fn()
            flat[j] = orig
            gflat[j] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def tensors(net, flat):
    """Per-tensor views of a vector laid out like net.flat (such as net.grad), in parameters() order."""
    out, pos = [], 0
    for p in net.parameters():
        out.append(flat[pos : pos + p.size].reshape(p.shape))
        pos += p.size
    return out


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b))) / denom


class TestForward:
    def test_zero_final_layer_gives_zero_action(self):
        net = Mlp((5, 8, 8, 2), head="tanh", head_scale=1.0, rng=np.random.default_rng(0))
        net.weights[-1][:] = 0.0
        net.biases[-1][:] = 0.0
        rng = np.random.default_rng(1)
        for _ in range(20):
            out = net.forward(rng.normal(size=5))
            assert np.array_equal(out, [0.0, 0.0])

    def test_tanh_head_bounded(self):
        net = Mlp((6, 16, 16, 2), head="tanh", head_scale=1.0, rng=np.random.default_rng(2))
        rng = np.random.default_rng(3)
        outs = net.forward(rng.normal(size=(10000, 6)) * 5)
        assert np.all(np.abs(outs) <= 1.0)

    def test_deterministic(self):
        net = Mlp((4, 8, 1), rng=np.random.default_rng(4))
        x = np.random.default_rng(5).normal(size=4)
        assert np.array_equal(net.forward(x), net.forward(x))

    def test_linear_head_scales_with_final_weights(self):
        net = Mlp((3, 8, 1), head="linear", rng=np.random.default_rng(6))
        x = np.random.default_rng(7).normal(size=3)
        y1 = float(net.forward(x)[0])
        net.weights[-1] *= 2.0
        net.biases[-1] *= 2.0
        assert float(net.forward(x)[0]) == pytest.approx(2.0 * y1, rel=1e-12)

    def test_shape_validation(self):
        net = Mlp((3, 4, 1))
        with pytest.raises(ValueError):
            net.forward(np.zeros(5))
        with pytest.raises(ValueError):
            Mlp((4, 3, 2)).forward(np.zeros((2, 4, 4)))


class TestBackward:
    @pytest.mark.parametrize("head,scale", [("linear", 1.0), ("tanh", 0.7)])
    def test_param_gradients_match_finite_differences(self, head, scale):
        rng = np.random.default_rng(10)
        net = Mlp((4, 6, 5, 2), head=head, head_scale=scale, rng=rng)
        x = rng.normal(size=(3, 4))
        c = rng.normal(size=(3, 2))  # fixed mixing weights make the loss scalar

        def loss():
            return float(np.sum(c * net.forward(x)))

        loss()
        analytic, _ = net.backward(c)
        numeric = numeric_grads(net, loss)
        for a, n in zip(tensors(net, analytic), numeric):
            assert rel_err(a, n) < 1e-4

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        net = Mlp((4, 8, 1), rng=rng)
        x = rng.normal(size=(2, 4))
        net.forward(x)
        _, g_in = net.backward(np.ones((2, 1)))
        eps = 1e-6
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                xp = x.copy()
                xp[i, j] += eps
                xm = x.copy()
                xm[i, j] -= eps
                fd = (np.sum(net.forward(xp)) - np.sum(net.forward(xm))) / (2 * eps)
                assert math.isclose(fd, g_in[i, j], rel_tol=1e-4, abs_tol=1e-7)

    @pytest.mark.parametrize("head", ["linear", "tanh"])
    def test_grad_out_must_match_the_output_shape(self, head):
        net = Mlp((4, 3, 2), head=head, head_scale=0.7, rng=np.random.default_rng(15))
        net.forward(np.ones((5, 4)))
        for bad in (np.ones((1, 2)), np.ones(2), np.ones((5, 1)), np.ones((5, 2, 1))):
            with pytest.raises(ValueError):
                net.backward(bad)
        assert net.backward(np.ones((5, 2)))[1].shape == (5, 4)
        net.forward(np.ones(4))
        with pytest.raises(ValueError):
            net.backward(np.ones((1, 2)))
        assert net.backward(np.ones(2))[1].shape == (4,)

    def test_backward_requires_forward(self):
        net = Mlp((2, 3, 1))
        with pytest.raises(RuntimeError):
            net.backward(np.ones((1, 1)))


class TestGradBuffer:
    """backward() writes the parameter gradients into the net's own `grad`, laid out like `flat`."""

    @staticmethod
    def net_and_input(seed):
        rng = np.random.default_rng(seed)
        net = Mlp((4, 6, 5, 2), head="tanh", head_scale=0.7, rng=rng)
        return net, rng.normal(size=(3, 4)), rng

    def test_backward_overwrites_and_returns_grad(self):
        net, x, rng = self.net_and_input(12)
        grad = net.grad
        assert grad.shape == net.flat.shape and grad.dtype == np.float64
        for input_grad in (True, False):
            grad.fill(np.nan)
            out = net.forward(x)
            grad_out = rng.normal(size=out.shape)
            got, _ = net.backward(grad_out, input_grad=input_grad)
            assert got is grad and net.grad is grad
            ref, _ = learner_oracle.backward(net, learner_oracle.forward(net, x)[1], grad_out)
            assert got.tobytes() == b"".join(r.tobytes() for r in ref)

    def test_param_grads_false_leaves_grad(self):
        net, x, rng = self.net_and_input(13)
        net.forward(x)
        net.backward(np.ones((3, 2)))
        kept = net.grad.copy()
        net.forward(rng.normal(size=x.shape))
        skipped, g_input = net.backward(rng.normal(size=(3, 2)), param_grads=False)
        assert skipped is None and g_input.shape == x.shape
        assert net.grad.tobytes() == kept.tobytes()

    def test_copy_gets_its_own_grad(self):
        net, x, _ = self.net_and_input(14)
        net.forward(x)
        net.backward(np.ones((3, 2)))
        kept = net.grad.copy()
        clone = net.copy()
        assert clone.grad.shape == net.grad.shape and not np.shares_memory(clone.grad, net.grad)
        clone.forward(2.0 * x)
        got, _ = clone.backward(np.ones((3, 2)))
        assert got is clone.grad and not np.array_equal(got, kept)
        assert net.grad.tobytes() == kept.tobytes()


class TestSoftUpdate:
    def nets(self):
        a = Mlp((3, 4, 2), rng=np.random.default_rng(20))
        b = Mlp((3, 4, 2), rng=np.random.default_rng(21))
        return a, b

    def test_full_copy_at_one(self):
        target, online = self.nets()
        soft_update(target, online, 1.0)
        for t, o in zip(target.parameters(), online.parameters()):
            assert np.allclose(t, o, atol=1e-16)

    def test_unchanged_at_zero(self):
        target, online = self.nets()
        before = [p.copy() for p in target.parameters()]
        soft_update(target, online, 0.0)
        for t, b in zip(target.parameters(), before):
            assert np.array_equal(t, b)

    def test_midpoint(self):
        target, online = self.nets()
        for p in target.parameters():
            p[:] = 0.0
        for p in online.parameters():
            p[:] = 2.0
        soft_update(target, online, 0.5)
        for p in target.parameters():
            assert np.allclose(p, 1.0, atol=0)

    def test_drift_bound(self):
        target, online = self.nets()
        before = [p.copy() for p in target.parameters()]
        xi = 0.01
        soft_update(target, online, xi)
        for t, b, o in zip(target.parameters(), before, online.parameters()):
            assert np.all(np.abs(t - b) <= xi * np.abs(o - b) + 1e-15)

    def test_shape_mismatch_rejected(self):
        a = Mlp((3, 4, 2))
        b = Mlp((3, 5, 2))
        with pytest.raises(ValueError):
            soft_update(a, b, 0.5)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        net = Mlp((2, 3, 1), rng=np.random.default_rng(30))
        opt = Adam(net, lr=1e-2)
        before = [p.copy() for p in net.parameters()]
        opt.step(np.zeros_like(net.flat))
        for p, b in zip(net.parameters(), before):
            assert np.array_equal(p, b)

    def test_converges_on_quadratic(self):
        rng = np.random.default_rng(31)
        net = Mlp((3, 32, 1), rng=rng)  # wide enough to interpolate the batch
        opt = Adam(net, lr=1e-2)
        x = rng.normal(size=(16, 3))
        y = rng.normal(size=(16, 1))
        first = None
        for _ in range(500):
            out = net.forward(x)
            err = out - y
            loss = float(np.mean(err**2))
            if first is None:
                first = loss
            grads, _ = net.backward(2.0 * err / err.size)
            opt.step(grads)
        assert loss < 0.1 * first

    def test_non_finite_gradient_rejected(self):
        net = Mlp((2, 3, 1))
        opt = Adam(net, lr=1e-3)
        bad = np.zeros_like(net.flat)
        bad[0] = np.nan
        with pytest.raises(FloatingPointError):
            opt.step(bad)

    # each `last` turns a valid flat gradient into a bad one, mostly by editing its tail
    REJECTED = [
        (lambda g: np.append(g[:-1], np.nan), FloatingPointError),
        (lambda g: np.append(g[:-1], -np.inf), FloatingPointError),
        (lambda g: np.append(g, 0.25), ValueError),
        (lambda g: list(g), ValueError),
        (lambda g: g.reshape(1, -1), ValueError),
        (lambda g: tensors(Mlp((2, 3, 1)), g), ValueError),
    ]

    @pytest.mark.parametrize(
        "last,error", REJECTED, ids=[f"last{k}-{e.__name__}" for k, (_, e) in enumerate(REJECTED)]
    )
    def test_rejected_step_moves_nothing(self, last, error):
        net = Mlp((2, 3, 1), rng=np.random.default_rng(32))
        opt = Adam(net, lr=1e-2)
        opt.step(np.full_like(net.flat, 0.5))
        flat = net.flat.copy()
        m, v, t = opt.m.copy(), opt.v.copy(), opt.t
        with pytest.raises(error):
            opt.step(last(np.full_like(net.flat, 0.25)))
        assert net.flat.tobytes() == flat.tobytes()
        assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v) and opt.t == t


class TestFlatStorage:
    def test_parameters_are_views_in_declaration_order(self):
        net = Mlp((5, 7, 3, 2), head="tanh", rng=np.random.default_rng(50))
        base = net.flat.__array_interface__["data"][0]
        pos = 0
        for p in net.parameters():
            assert p.base is net.flat
            assert p.__array_interface__["data"][0] == base + 8 * pos
            pos += p.size
        assert pos == net.flat.size == flat_size(net.dims)
        assert net.flat.dtype == np.float64

    def test_draw_order_unchanged(self):
        rng = np.random.default_rng(51)
        expected = [
            rng.normal(0.0, math.sqrt(2.0 / 4), size=(4, 6)),
            np.zeros(6),
            rng.normal(0.0, math.sqrt(2.0 / 6), size=(6, 5)),
            np.zeros(5),
            rng.uniform(-1e-3, 1e-3, size=(5, 2)),
            np.zeros(2),
        ]
        net = Mlp((4, 6, 5, 2), rng=np.random.default_rng(51))
        assert net.flat.tobytes() == b"".join(e.tobytes() for e in expected)

    def test_copy_shares_no_memory(self):
        net = Mlp((3, 4, 2), rng=np.random.default_rng(52))
        clone = net.copy()
        assert clone.flat.tobytes() == net.flat.tobytes()
        for a in [clone.flat, *clone.parameters()]:
            for b in [net.flat, *net.parameters()]:
                assert not np.shares_memory(a, b)
        for p in clone.parameters():
            assert p.base is clone.flat
        clone.flat += 1.0
        assert not np.array_equal(clone.weights[0], net.weights[0])

    def trained(self):
        env = PatrolEnv(default_world(), ShieldParams(), episode_len=12)
        config = TrainerConfig(
            episodes=1, episode_len=12, batch_size=4, warmup_transitions=4, update_every=2,
            buffer_capacity=50, actor_hidden=(5,), critic_hidden=(6,), seed=53,
        )
        trainer = MaddpgTrainer(env, config, shield_enabled=False)
        trainer.train()
        return trainer, MaddpgTrainer(env, config, shield_enabled=False)

    def test_checkpoint_round_trip_is_byte_identical(self, tmp_path):
        trainer, fresh = self.trained()
        first, second = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(first, trainer, "{}")
        _, agents = load_checkpoint(first)
        attach_networks(fresh, agents)
        save_checkpoint(second, fresh, "{}")
        assert first.read_bytes() == second.read_bytes()

    def loaded(self, tmp_path):
        trainer, fresh = self.trained()
        path = tmp_path / "a.bin"
        save_checkpoint(path, trainer, "{}")
        _, agents = load_checkpoint(path)
        return trainer, fresh, agents

    @staticmethod
    def all_nets(trainer):
        return trainer.actors + trainer.critics + trainer.target_actors + trainer.target_critics

    def test_training_after_attach_moves_the_attached_nets(self, tmp_path):
        trainer, fresh, agents = self.loaded(tmp_path)
        attach_networks(fresh, agents)
        for net, source in zip(self.all_nets(fresh), self.all_nets(trainer)):
            assert net.flat.tobytes() == source.flat.tobytes()
        for opt, net in zip(fresh.actor_opts + fresh.critic_opts, fresh.actors + fresh.critics):
            assert opt.net is net
        attached = [net.flat.copy() for net in self.all_nets(fresh)]
        fresh.train()
        for net, before in zip(self.all_nets(fresh), attached):
            assert not np.array_equal(net.flat, before)

    def test_target_dims_checked_before_anything_moves(self, tmp_path):
        _, fresh, agents = self.loaded(tmp_path)
        agents[-1]["target_critic"] = Mlp((3, 2))
        before = [net.flat.copy() for net in self.all_nets(fresh)]
        with pytest.raises(CheckpointMismatchError, match=r"target_critic dims: expected .* found \(3, 2\)"):
            attach_networks(fresh, agents)
        for net, b in zip(self.all_nets(fresh), before):
            assert net.flat.tobytes() == b.tobytes()

    def test_loaded_values_live_in_flat(self, tmp_path):
        trainer, _ = self.trained()
        path = tmp_path / "a.bin"
        save_checkpoint(path, trainer, "{}")
        _, agents = load_checkpoint(path)
        online, target = agents[0]["actor"], agents[0]["target_actor"]
        assert online.flat.tobytes() == trainer.actors[0].flat.tobytes()
        assert not np.array_equal(online.flat, target.flat)
        for net in (online, target):
            for p in net.parameters():
                assert p.base is net.flat
        before = [p.copy() for p in online.parameters()]
        Adam(online, lr=1e-2).step(np.ones_like(online.flat))
        for p, b in zip(online.parameters(), before):
            assert np.all(p < b)
        differs = [t != o for t, o in zip(target.parameters(), online.parameters())]
        before = [p.copy() for p in target.parameters()]
        soft_update(target, online, 0.5)
        for p, b, d in zip(target.parameters(), before, differs):
            assert np.array_equal(p != b, d)
