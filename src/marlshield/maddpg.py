"""Multi-agent actor-critic trainer with per-agent safety filters.

Centralized training, decentralized execution: each agent owns an actor fed
by its local observation and a critic fed by the joint observation/action
vector; the online actors share one `nets.MlpStack`, so the per-step policy
is one pass through the same forward the learner's per-net calls use. A
shared FIFO replay buffer stores the executed (post-shield) actions, so
critics always score the behavior that actually happened. Each transition
is one row of the buffer's matrix with the critic input (joint
observation, then joint action) at its front, so a minibatch is one row
gather and the critic reads its input as a view of the gathered rows.
Gradients arrive as each net's flat `grad` vector and go to Adam whole.
Target nets trail the online ones through soft updates, one blend per flat
vector.

The safety filter sits between action selection and execution: exploration
noise is added to the policy output first, the filtered action is what the
environment executes and what the buffer stores. Episode metrics come from
one `patrol.EpisodeLedger` fed once per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import shield as shield_mod
from .dynamics import _finite
from .nets import Adam, Mlp, MlpStack, soft_update
from .patrol import EpisodeLedger, PatrolEnv, TrajectoryRow

__all__ = [
    "TrainerConfig",
    "ReplayBuffer",
    "Batch",
    "td_target",
    "critic_update",
    "actor_update",
    "MaddpgTrainer",
    "TrainingDivergenceError",
]


class TrainingDivergenceError(RuntimeError):
    def __init__(self, episode: int, message: str):
        super().__init__(f"training diverged in episode {episode}: {message}")
        self.episode = episode


@dataclass(frozen=True)
class TrainerConfig:
    episodes: int = 500
    episode_len: int = 200
    batch_size: int = 256
    discount: float = 0.95
    soft_update_coef: float = 0.01
    lr_critic: float = 1e-3
    lr_actor: float = 1e-4
    noise_sigma: float = 0.1
    noise_decay: float = 0.9995
    update_every: int = 4
    warmup_transitions: int = 1000
    buffer_capacity: int = 100_000
    actor_hidden: tuple = (64, 64)
    critic_hidden: tuple = (64, 64)
    seed: int = 0

    def __post_init__(self):
        # every float field, an int given for one too, and any float given for an int field
        values = [(f.type, getattr(self, f.name)) for f in fields(self)]
        if not all(_finite(v) for kind, v in values if kind == "float" or isinstance(v, float)):
            raise ValueError(f"trainer parameters must be finite, got {self!r}")
        if not 0.0 < self.discount < 1.0:
            raise ValueError("discount must lie in (0, 1)")
        if not (self.lr_actor > 0 and self.lr_critic > 0):
            raise ValueError("learning rates must be > 0")
        if min(self.noise_sigma, self.noise_decay, self.warmup_transitions) < 0:
            raise ValueError("noise_sigma, noise_decay and warmup_transitions must be >= 0")
        if not 0.0 < self.soft_update_coef <= 1.0:
            raise ValueError("soft_update_coef must lie in (0, 1]")
        if self.batch_size < 1 or self.buffer_capacity < 1:
            raise ValueError("batch_size and buffer_capacity must be >= 1")
        if self.batch_size > self.buffer_capacity:
            raise ValueError("batch_size cannot exceed buffer_capacity")
        if self.episodes < 0 or self.episode_len < 0:
            raise ValueError("episodes and episode_len must be >= 0")
        if self.update_every < 1:
            raise ValueError("update_every must be >= 1")
        if min((*self.actor_hidden, *self.critic_hidden), default=1) < 1:
            raise ValueError("hidden layer sizes must be >= 1")


@dataclass(frozen=True, eq=False)
class Batch:
    obs: np.ndarray  # (S, n, d)
    actions: np.ndarray  # (S, n, 2)
    rewards: np.ndarray  # (S, n)
    next_obs: np.ndarray
    done: np.ndarray  # (S,)
    joint: np.ndarray  # (S, n*d + n*2): per-agent obs then per-agent actions, the critic input


class ReplayBuffer:
    """Preallocated ring buffer, left uninitialized (`sample` reads only written slots); FIFO, uniform.

    Transition k is row k of one (capacity, width) matrix: obs, actions,
    rewards and next_obs, each flattened, in that order. `_obs`, `_actions`,
    `_rewards` and `_next_obs` are views of its columns, and a sampled
    Batch holds the same views of the gathered rows; its `joint` is the
    leading obs-and-actions columns, which is the critic input's layout.
    """

    def __init__(self, capacity: int, n_agents: int, obs_dim: int, act_dim: int = 2):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._shapes = ((n_agents, obs_dim), (n_agents, act_dim), (n_agents,), (n_agents, obs_dim))
        self._rows = np.empty((capacity, sum(math.prod(s) for s in self._shapes)))
        self._joint_width = n_agents * (obs_dim + act_dim)
        self._obs, self._actions, self._rewards, self._next_obs, _ = self._fields(self._rows)
        self._done = np.empty(capacity, dtype=bool)
        self._pos = 0
        self._size = 0

    def _fields(self, rows: np.ndarray):
        """Views of rows: (obs, actions, rewards, next_obs, joint), each with the leading row axis."""
        views, pos = [], 0
        for shape in self._shapes:
            width = math.prod(shape)
            views.append(rows[:, pos : pos + width].reshape(len(rows), *shape))
            pos += width
        return (*views, rows[:, : self._joint_width])

    def __len__(self) -> int:
        return self._size

    def add(self, obs, actions, rewards, next_obs, done: bool) -> None:
        """Store one transition; each array must have its field's exact per-agent shape."""
        try:  # arrays, as the trainer passes them, without np.shape's dispatch cost
            shapes = (obs.shape, actions.shape, rewards.shape, next_obs.shape)
        except AttributeError:
            shapes = (np.shape(obs), np.shape(actions), np.shape(rewards), np.shape(next_obs))
        if shapes != self._shapes:
            raise ValueError(f"transition shapes {shapes} do not match the buffer's {self._shapes}")
        i = self._pos
        self._obs[i] = obs
        self._actions[i] = actions
        self._rewards[i] = rewards
        self._next_obs[i] = next_obs
        self._done[i] = done
        self._pos = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=batch_size)
        idx = (self._pos - self._size + idx) % self.capacity
        obs, actions, rewards, next_obs, joint = self._fields(self._rows.take(idx, axis=0))
        return Batch(obs, actions, rewards, next_obs, self._done[idx], joint)


def td_target(batch: Batch, agent: int, target_actors, target_critic: Mlp, discount: float) -> np.ndarray:
    """Bootstrap targets y = r + discount * Q'(x', target actions); y = r at terminals."""
    (s, n, d), a = batch.next_obs.shape, batch.actions.shape[2]
    x = np.empty((s, n * (d + a)))  # the critic input of next_obs and the target actions
    x[:, : n * d] = batch.next_obs.reshape(s, n * d)
    for i, ta in enumerate(target_actors):
        x[:, n * d + i * a : n * d + (i + 1) * a] = ta.forward(batch.next_obs[:, i])
    q_next = target_critic.forward(x)[:, 0]
    return batch.rewards[:, agent] + discount * np.where(batch.done, 0.0, q_next)


def critic_update(critic: Mlp, optimizer: Adam, batch: Batch, targets: np.ndarray) -> float:
    """One squared-TD-error gradient step; returns the pre-step loss."""
    s = batch.obs.shape[0]
    q = critic.forward(batch.joint)[:, 0]
    err = q - targets
    loss = float(np.mean(err * err))
    if not math.isfinite(loss):
        raise FloatingPointError(f"critic loss is {loss}")
    grad, _ = critic.backward((2.0 / s) * err.reshape(-1, 1), input_grad=False)
    optimizer.step(grad)
    return loss


def actor_update(actor: Mlp, critic: Mlp, optimizer: Adam, batch: Batch, agent: int) -> float:
    """Ascend the critic value of the actor's own action; returns the gradient norm.

    Peer actions come from the batch; only the focal agent's columns of
    the critic input are replaced by the live policy output, and the chain
    rule runs through the critic's input gradient into the actor; the
    critic's own parameter gradients are never formed. The safety filter is
    not part of the differentiated path.
    """
    s, _, a = batch.actions.shape
    a_i = actor.forward(batch.obs[:, agent])
    offset = batch.obs.shape[1] * batch.obs.shape[2] + agent * a
    x = batch.joint.copy()
    x[:, offset : offset + a] = a_i
    critic.forward(x)
    _, g_input = critic.backward(np.full((s, 1), 1.0 / s), param_grads=False)
    grad, _ = actor.backward(g_input[:, offset : offset + a], input_grad=False)
    norm = math.sqrt(float(grad @ grad))
    if not math.isfinite(norm):
        raise FloatingPointError(f"actor gradient norm is {norm}")
    optimizer.step(np.negative(grad, out=grad))
    return norm


class MaddpgTrainer:
    """Owns the networks, buffer, and episode loop for one training run."""

    def __init__(self, env: PatrolEnv, config: TrainerConfig, shield_enabled: bool = True):
        self.env = env
        self.config = config
        self.shield_enabled = shield_enabled
        self.rng = np.random.default_rng(config.seed)
        n = env.n_agents
        d = env.obs_dim
        a_max = env.world.a_max
        joint_dim = n * d + n * 2
        self.actors = [
            Mlp((d, *config.actor_hidden, 2), head="tanh", head_scale=a_max, rng=self.rng)
            for _ in range(n)
        ]
        self.critics = [
            Mlp((joint_dim, *config.critic_hidden, 1), head="linear", rng=self.rng)
            for _ in range(n)
        ]
        self.policy = MlpStack(self.actors)
        self.target_actors = [a.copy() for a in self.actors]
        self.target_critics = [c.copy() for c in self.critics]
        self.actor_opts = [Adam(a, config.lr_actor) for a in self.actors]
        self.critic_opts = [Adam(c, config.lr_critic) for c in self.critics]
        self.buffer = ReplayBuffer(config.buffer_capacity, n, d)
        self.global_step = 0

    def nominal_actions(self, obs, sigma: float) -> np.ndarray:
        """Actor i on obs[i] for every agent in one stacked pass, plus exploration noise, clipped to the box."""
        a_max = self.env.world.a_max
        acts = self.policy.forward(obs)
        if sigma > 0.0:
            acts += self.rng.normal(0.0, sigma, size=acts.shape)
        return np.minimum(np.maximum(acts, -a_max, out=acts), a_max, out=acts)

    def shielded_actions(self, state, nominal: np.ndarray):
        """Run each agent's filter; returns executed actions and reports."""
        all_agents = list(enumerate(state.agents))
        actions = np.empty_like(nominal)
        reports = []
        for i in range(self.env.n_agents):
            u, report = shield_mod.filter_action(
                i,
                nominal[i],
                state.agents[i],
                all_agents,
                self.env.world.obstacles,
                self.env.world,
                self.env.params,
            )
            actions[i] = u
            reports.append(report)
        return actions, reports

    def run_episode(self, reset_seed: int, sigma: float, learn: bool, record: bool = False):
        """One episode; returns (EpisodeLedger metrics, trajectory rows or None).

        Row clearances come from the states env.step returns: recording scans nothing.
        """
        env = self.env
        cfg = self.config
        state, obs = env.reset(reset_seed)
        ledger = EpisodeLedger(env.params.d_s)
        rows: list[TrajectoryRow] | None = [] if record else None

        for t in range(env.episode_len):
            nominal = self.nominal_actions(obs, sigma)
            if self.shield_enabled:
                actions, reports = self.shielded_actions(state, nominal)
            else:
                actions, reports = nominal, None
            next_state, next_obs, rewards, done = env.step(state, actions)
            self.buffer.add(obs, actions, rewards, next_obs, done)
            ledger.record(next_state, rewards, reports)
            if rows is not None:
                for i in range(env.n_agents):
                    rows.append(
                        TrajectoryRow(
                            step=t,
                            agent_id=i,
                            position=next_state.agents[i].position,
                            velocity=next_state.agents[i].velocity,
                            u_nominal=nominal[i],
                            u_safe=actions[i],
                            reward=float(rewards[i]),
                            min_entity_distance=next_state.min_clearance[i],
                            shield_status=reports[i].status if reports else "off",
                        )
                    )
            self.global_step += 1
            if learn and len(self.buffer) >= cfg.warmup_transitions and self.global_step % cfg.update_every == 0:
                self._update_all()
            state, obs = next_state, next_obs
            if done:
                break
        return ledger.metrics(), rows

    def _update_all(self) -> None:
        cfg = self.config
        for i in range(self.env.n_agents):
            batch = self.buffer.sample(cfg.batch_size, self.rng)
            y = td_target(batch, i, self.target_actors, self.target_critics[i], cfg.discount)
            critic_update(self.critics[i], self.critic_opts[i], batch, y)
            actor_update(self.actors[i], self.critics[i], self.actor_opts[i], batch, i)
            soft_update(self.target_actors[i], self.actors[i], cfg.soft_update_coef)
            soft_update(self.target_critics[i], self.critics[i], cfg.soft_update_coef)

    def train(self, on_episode=None) -> list[dict]:
        """Run the configured number of episodes; returns one metrics dict each."""
        out = []
        for ep in range(self.config.episodes):
            sigma = self.config.noise_sigma * self.config.noise_decay**ep
            reset_seed = int(self.rng.integers(0, 2**31 - 1))
            try:
                metrics, _ = self.run_episode(reset_seed, sigma, learn=True)
            except FloatingPointError as exc:
                raise TrainingDivergenceError(ep, str(exc)) from exc
            metrics["episode"] = ep
            out.append(metrics)
            if on_episode is not None:
                on_episode(ep, metrics)
        return out
