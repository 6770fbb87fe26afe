"""Per-tensor reference for the learner: forward, backward, Adam, soft updates.

Independent of the flat parameter and gradient vectors: every function
here reads and writes a net only through `weights`, `biases` and
`parameters()`, one tensor at a time, allocating fresh arrays for every
intermediate, and the actor step forms the critic's full parameter
gradients before discarding them.
The arithmetic per element is the package's, so a learner round through
`update_all` must leave parameters, moments and target nets bit-identical
to `MaddpgTrainer._update_all` on an identically seeded trainer.
"""

from __future__ import annotations

import math

import numpy as np


def joint_input(obs, actions):
    """Critic input: per-agent observations then per-agent actions, ascending id."""
    s = obs.shape[0]
    return np.concatenate([obs.reshape(s, -1), actions.reshape(s, -1)], axis=1)


def forward(net, x):
    """Returns (output, activations) without touching the net's cache."""
    a = np.asarray(x, dtype=float)
    activations = [a]
    n_layers = len(net.weights)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w + b
        if i < n_layers - 1:
            a = np.maximum(z, 0.0)
        elif net.head == "tanh":
            a = net.head_scale * np.tanh(z)
        else:
            a = z
        activations.append(a)
    return a, activations


def backward(net, activations, grad_out):
    """Returns (per-tensor parameter gradients, input gradient)."""
    g = np.asarray(grad_out, dtype=float)
    if net.head == "tanh":
        y = activations[-1]
        g = g * (net.head_scale - y * y / net.head_scale)
    grads = [None] * (2 * len(net.weights))
    for i in range(len(net.weights) - 1, -1, -1):
        grads[2 * i] = activations[i].T @ g
        grads[2 * i + 1] = g.sum(axis=0)
        g = g @ net.weights[i].T
        if i > 0:
            g = g * (activations[i] > 0.0)
    return grads, g


class TensorAdam:
    """Adam with one moment array per parameter tensor."""

    def __init__(self, net, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.net = net
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in net.parameters()]
        self.v = [np.zeros_like(p) for p in net.parameters()]

    def step(self, grads):
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(self.net.parameters(), grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def soft_update(target, online, xi):
    for tp, op in zip(target.parameters(), online.parameters()):
        tp *= 1.0 - xi
        tp += xi * op


def td_target(batch, agent, target_actors, target_critic, discount):
    next_actions = np.stack(
        [forward(ta, batch.next_obs[:, i])[0] for i, ta in enumerate(target_actors)], axis=1
    )
    q_next = forward(target_critic, joint_input(batch.next_obs, next_actions))[0][:, 0]
    return batch.rewards[:, agent] + discount * np.where(batch.done, 0.0, q_next)


def critic_update(critic, optimizer, batch, targets):
    s = batch.obs.shape[0]
    q, acts = forward(critic, joint_input(batch.obs, batch.actions))
    err = q[:, 0] - targets
    grads, _ = backward(critic, acts, (2.0 / s) * err.reshape(-1, 1))
    optimizer.step(grads)


def actor_update(actor, critic, optimizer, batch, agent):
    s = batch.obs.shape[0]
    a_i, actor_acts = forward(actor, batch.obs[:, agent])
    actions = batch.actions.copy()
    actions[:, agent] = a_i
    _, critic_acts = forward(critic, joint_input(batch.obs, actions))
    _, g_input = backward(critic, critic_acts, np.full((s, 1), 1.0 / s))
    offset = batch.obs.shape[1] * batch.obs.shape[2] + agent * actions.shape[2]
    grads, _ = backward(actor, actor_acts, g_input[:, offset : offset + actions.shape[2]])
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    optimizer.step([-g for g in grads])
    return norm


def update_all(trainer, actor_opts, critic_opts):
    """One learner round on `trainer`'s nets, buffer and rng, as `_update_all` runs it."""
    cfg = trainer.config
    for i in range(trainer.env.n_agents):
        batch = trainer.buffer.sample(cfg.batch_size, trainer.rng)
        y = td_target(batch, i, trainer.target_actors, trainer.target_critics[i], cfg.discount)
        critic_update(trainer.critics[i], critic_opts[i], batch, y)
        actor_update(trainer.actors[i], trainer.critics[i], actor_opts[i], batch, i)
        soft_update(trainer.target_actors[i], trainer.actors[i], cfg.soft_update_coef)
        soft_update(trainer.target_critics[i], trainer.critics[i], cfg.soft_update_coef)
