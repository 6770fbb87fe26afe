"""Multi-agent actor-critic trainer with per-agent safety filters.

Centralized training, decentralized execution: each agent owns an actor fed
by its local observation and a critic fed by the joint observation/action
vector. A shared FIFO replay buffer stores the executed (post-shield)
actions, so critics always score the behavior that actually happened.
Target copies of every network trail the online ones through soft updates,
one vector blend per network over its flat parameter vector.

The safety filter sits between action selection and execution: exploration
noise is added to the policy output first, the filtered action is what the
environment executes and what the buffer stores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import shield as shield_mod
from .nets import Adam, Mlp, soft_update
from .patrol import PatrolEnv, TrajectoryRow

__all__ = [
    "TrainerConfig",
    "Transition",
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
        if not 0.0 < self.discount < 1.0:
            raise ValueError("discount must lie in (0, 1)")
        if not 0.0 < self.soft_update_coef <= 1.0:
            raise ValueError("soft_update_coef must lie in (0, 1]")
        if self.batch_size > self.buffer_capacity:
            raise ValueError("batch_size cannot exceed buffer_capacity")
        if self.episodes < 0 or self.episode_len < 0:
            raise ValueError("episodes and episode_len must be >= 0")
        if self.update_every < 1:
            raise ValueError("update_every must be >= 1")


@dataclass(frozen=True, eq=False)
class Transition:
    obs: np.ndarray  # (n_agents, obs_dim)
    actions: np.ndarray  # (n_agents, 2), the executed safe actions
    rewards: np.ndarray  # (n_agents,)
    next_obs: np.ndarray
    done: bool


@dataclass(frozen=True, eq=False)
class Batch:
    obs: np.ndarray  # (S, n, d)
    actions: np.ndarray  # (S, n, 2)
    rewards: np.ndarray  # (S, n)
    next_obs: np.ndarray
    done: np.ndarray  # (S,)


class ReplayBuffer:
    """Preallocated ring buffer; eviction strictly FIFO, sampling uniform."""

    def __init__(self, capacity: int, n_agents: int, obs_dim: int, act_dim: int = 2):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._obs = np.zeros((capacity, n_agents, obs_dim))
        self._actions = np.zeros((capacity, n_agents, act_dim))
        self._rewards = np.zeros((capacity, n_agents))
        self._next_obs = np.zeros((capacity, n_agents, obs_dim))
        self._done = np.zeros(capacity, dtype=bool)
        self._pos = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, obs, actions, rewards, next_obs, done: bool) -> None:
        i = self._pos
        self._obs[i] = obs
        self._actions[i] = actions
        self._rewards[i] = rewards
        self._next_obs[i] = next_obs
        self._done[i] = done
        self._pos = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def get(self, k: int) -> Transition:
        """k-th oldest stored transition (0 = oldest surviving)."""
        if not 0 <= k < self._size:
            raise IndexError(k)
        i = (self._pos - self._size + k) % self.capacity
        return Transition(
            obs=self._obs[i].copy(),
            actions=self._actions[i].copy(),
            rewards=self._rewards[i].copy(),
            next_obs=self._next_obs[i].copy(),
            done=bool(self._done[i]),
        )

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=batch_size)
        idx = (self._pos - self._size + idx) % self.capacity
        return Batch(
            obs=self._obs[idx],
            actions=self._actions[idx],
            rewards=self._rewards[idx],
            next_obs=self._next_obs[idx],
            done=self._done[idx],
        )


def joint_input(obs: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Critic input: per-agent observations then per-agent actions, ascending id."""
    s = obs.shape[0]
    return np.concatenate([obs.reshape(s, -1), actions.reshape(s, -1)], axis=1)


def td_target(batch: Batch, agent: int, target_actors, target_critic: Mlp, discount: float) -> np.ndarray:
    """Bootstrap targets y = r + discount * Q'(x', target actions); y = r at terminals."""
    next_actions = np.stack(
        [ta.forward(batch.next_obs[:, i]) for i, ta in enumerate(target_actors)], axis=1
    )
    q_next = target_critic.forward(joint_input(batch.next_obs, next_actions))[:, 0]
    return batch.rewards[:, agent] + discount * np.where(batch.done, 0.0, q_next)


def critic_update(critic: Mlp, optimizer: Adam, batch: Batch, targets: np.ndarray) -> float:
    """One squared-TD-error gradient step; returns the pre-step loss."""
    s = batch.obs.shape[0]
    q = critic.forward(joint_input(batch.obs, batch.actions))[:, 0]
    err = q - targets
    loss = float(np.mean(err * err))
    if not math.isfinite(loss):
        raise FloatingPointError(f"critic loss is {loss}")
    grads, _ = critic.backward((2.0 / s) * err.reshape(-1, 1), input_grad=False)
    optimizer.step(grads)
    return loss


def actor_update(actor: Mlp, critic: Mlp, optimizer: Adam, batch: Batch, agent: int) -> float:
    """Ascend the critic value of the actor's own action; returns the gradient norm.

    Peer actions come from the batch; only the focal agent's column is
    replaced by the live policy output, and the chain rule runs through the
    critic's input gradient into the actor; the critic's own parameter
    gradients are never formed. The safety filter is not part of the
    differentiated path.
    """
    s = batch.obs.shape[0]
    a_i = actor.forward(batch.obs[:, agent])
    actions = batch.actions.copy()
    actions[:, agent] = a_i
    critic.forward(joint_input(batch.obs, actions))
    _, g_input = critic.backward(np.full((s, 1), 1.0 / s), param_grads=False)
    offset = batch.obs.shape[1] * batch.obs.shape[2] + agent * actions.shape[2]
    g_action = g_input[:, offset : offset + actions.shape[2]]
    grads, _ = actor.backward(g_action, input_grad=False)
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if not math.isfinite(norm):
        raise FloatingPointError(f"actor gradient norm is {norm}")
    optimizer.step([-g for g in grads])
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
        self.target_actors = [a.copy() for a in self.actors]
        self.target_critics = [c.copy() for c in self.critics]
        self.actor_opts = [Adam(a, config.lr_actor) for a in self.actors]
        self.critic_opts = [Adam(c, config.lr_critic) for c in self.critics]
        self.buffer = ReplayBuffer(config.buffer_capacity, n, d)
        self.global_step = 0
        self.slack_events = 0

    def nominal_actions(self, obs, sigma: float) -> np.ndarray:
        """Policy outputs plus exploration noise, clipped to the action box."""
        a_max = self.env.world.a_max
        acts = np.stack([actor.forward(o) for actor, o in zip(self.actors, obs)])
        if sigma > 0.0:
            acts = acts + self.rng.normal(0.0, sigma, size=acts.shape)
        return np.clip(acts, -a_max, a_max)

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
        """One episode; returns (metrics dict, trajectory rows or None)."""
        env = self.env
        cfg = self.config
        state, obs = env.reset(reset_seed)
        totals = np.zeros(env.n_agents)
        min_dist = math.inf
        collision_steps = 0
        corrections = 0
        slack_before = self.slack_events
        rows: list[TrajectoryRow] | None = [] if record else None

        for t in range(env.episode_len):
            nominal = self.nominal_actions(obs, sigma)
            if self.shield_enabled:
                actions, reports = self.shielded_actions(state, nominal)
            else:
                actions, reports = nominal, None
            next_state, next_obs, rewards, done = env.step(state, actions)
            self.buffer.add(np.stack(obs), actions, rewards, np.stack(next_obs), done)
            totals += rewards
            step_min = min(
                env.min_entity_distance(next_state, i) for i in range(env.n_agents)
            )
            min_dist = min(min_dist, step_min)
            if step_min <= env.params.d_s:
                collision_steps += 1
            if reports is not None:
                for rep in reports:
                    if rep.status != shield_mod.STATUS_PASSTHROUGH:
                        corrections += 1
                    if rep.status == shield_mod.STATUS_RELAXED:
                        self.slack_events += 1
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
                            min_entity_distance=env.min_entity_distance(next_state, i),
                            shield_status=reports[i].status if reports else "off",
                            checkins_reached=next_state.checkins_reached,
                        )
                    )
            self.global_step += 1
            if learn and len(self.buffer) >= cfg.warmup_transitions and self.global_step % cfg.update_every == 0:
                self._update_all()
            state, obs = next_state, next_obs
            if done:
                break

        metrics = {
            "reward_I": float(totals[0]),
            "reward_II": float(totals[1]),
            "collisions_step": collision_steps,
            "collisions_episode": int(collision_steps > 0),
            "min_dist": min_dist,
            "checkins": state.checkins_reached,
            "corrections": corrections,
            "slack_events": self.slack_events - slack_before,
        }
        return metrics, rows

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
