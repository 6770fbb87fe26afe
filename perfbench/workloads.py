"""The benchmark's workloads, each a fixed unit of work made from a seed.

A workload builds its inputs once from the benchmark seed (`setup`) and
then runs the same unit of work as often as the run lasts (`run_unit`).
A unit is split into runs (one per training seed, or the whole rollout)
and runs into pieces of fixed content (episodes or scenarios). Between
every two pieces the calibration kernel reads the machine's current
speed (see calibration.py). Every unit also returns its safety figures
and a sha256 digest of what it computed, so repeated units double as a
determinism check.

The package only ever receives generated inputs: trainer seeds derived
from the benchmark seed, or seeded safe start states.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from calibration import reference_seconds, speed_factor
from marlshield import dynamics, shield
from marlshield.barriers import ShieldParams, h_cooperative, h_noncooperative
from marlshield.dynamics import AgentState, ObstacleSpec, WorldConfig
from marlshield.maddpg import MaddpgTrainer, TrainerConfig
from marlshield.patrol import PatrolEnv, default_world
from tracing import update_mflop

# Safety gates of the shielded workloads: no joint step may end at or below
# d_s (a collision step), and the minimum separation of a run must stay at
# or above d_s - SEPARATION_TOL (the acceptance suite's tolerance).
SEPARATION_TOL = 1e-3

_perf = time.perf_counter


@dataclass
class RunTiming:
    """One training run (or the whole rollout): raw times and speed per piece."""

    piece_steps: list[int] = field(default_factory=list)
    piece_seconds: list[float] = field(default_factory=list)
    piece_factors: list[float] = field(default_factory=list)
    piece_ticks: list[list[float]] = field(default_factory=list)

    def set_factors(self, kernels: list[float]) -> None:
        """Speed factor of each piece from the kernel readings on either side of it."""
        self.piece_factors = [speed_factor(kernels[i : i + 2]) for i in range(len(kernels) - 1)]


@dataclass
class UnitResult:
    """One unit of work: per-run timings, safety figures and digest."""

    runs: list[RunTiming]
    failed_steps: int
    min_separation: float
    digest: str
    seed_digests: dict = field(default_factory=dict)

    @property
    def steps(self) -> int:
        return sum(sum(r.piece_steps) for r in self.runs)

    @property
    def seconds(self) -> float:
        return sum(sum(r.piece_seconds) for r in self.runs)


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


class TrainingWorkload:
    """MADDPG training runs over several trainer seeds, back to back.

    One unit trains every seed for `episodes` episodes from freshly built
    trainers. Pieces are episodes. A tick is one whole joint training step
    (policy, filter when shielded, env step, buffer, and the learner update
    on update steps): the interval between consecutive policy calls within
    an episode, read by a per-instance hook that leaves the package's
    classes untouched.
    """

    def __init__(self, name, shielded, batch_size, update_every, episodes, n_seeds,
                 episode_len=200, warmup_transitions=1000):
        self.name = name
        self.shielded = shielded
        self.batch_size = batch_size
        self.update_every = update_every
        self.episodes = episodes
        self.n_seeds = n_seeds
        self.episode_len = episode_len
        self.warmup_transitions = warmup_transitions
        self.planned_steps = episodes * n_seeds * episode_len
        self.n_runs = n_seeds
        self.seeds: list[int] = []
        self.world = None
        self.params = None
        self.mflop_per_update = 0.0

    def setup(self, seed: int) -> None:
        self.seeds = [seed * 100 + k for k in range(self.n_seeds)]
        self.world = default_world()
        self.params = ShieldParams()
        trainer = self._trainer(self.seeds[0])
        self.mflop_per_update = update_mflop(
            trainer.actors[0].dims, trainer.critics[0].dims, trainer.env.n_agents, self.batch_size
        )

    def _trainer(self, seed: int) -> MaddpgTrainer:
        cfg = TrainerConfig(
            seed=seed,
            episodes=self.episodes,
            episode_len=self.episode_len,
            batch_size=self.batch_size,
            update_every=self.update_every,
            warmup_transitions=self.warmup_transitions,
        )
        env = PatrolEnv(self.world, self.params, episode_len=self.episode_len)
        return MaddpgTrainer(env, cfg, shield_enabled=self.shielded)

    def run_unit(self, tracer=None) -> UnitResult:
        """Train every seed once; ticks are sampled only when not traced."""
        runs = []
        failed = 0
        min_sep = math.inf
        seed_digests = {}
        for seed in self.seeds:
            trainer = self._trainer(seed)
            policy_calls: list[float] = []
            if tracer is None:
                _hook_policy_calls(trainer, policy_calls)
            # an episode ends early once the circuit is complete, so steps come
            # from the trainer's step counter rather than from episode_len
            kernels = [reference_seconds()]
            begin, end, step_marks, call_marks = [_perf()], [], [0], [0]

            def on_episode(ep, metrics):
                end.append(_perf())
                step_marks.append(trainer.global_step)
                call_marks.append(len(policy_calls))
                kernels.append(reference_seconds())
                begin.append(_perf())

            rows = trainer.train(on_episode=on_episode)
            if tracer is None:
                # the hook closes over the trainer's bound method; dropping it
                # breaks that cycle so each trainer's buffer is freed right away
                del trainer.nominal_actions
            timing = RunTiming(
                piece_steps=[b - a for a, b in zip(step_marks, step_marks[1:])],
                piece_seconds=[e - b for b, e in zip(begin, end)],
                piece_ticks=[
                    [y - x for x, y in zip(policy_calls[a:b], policy_calls[a + 1 : b])]
                    for a, b in zip(call_marks, call_marks[1:])
                ],
            )
            timing.set_factors(kernels)
            runs.append(timing)
            for r in rows:
                min_sep = min(min_sep, r["min_dist"])
                if self.shielded:
                    failed += r["collisions_step"]  # steps ending at or below d_s
            params = [p for group in (trainer.actors, trainer.critics, trainer.target_actors,
                                      trainer.target_critics) for net in group for p in net.parameters()]
            seed_digests[str(seed)] = _digest(
                json.dumps(rows, sort_keys=True).encode(), *(p.tobytes() for p in params)
            )
            # release each trainer before the next is built: peak RSS holds one
            del trainer, params
        return UnitResult(
            runs=runs,
            failed_steps=failed,
            min_separation=min_sep,
            digest=_digest(*(d.encode() for d in seed_digests.values())),
            seed_digests=seed_digests,
        )


def _hook_policy_calls(trainer: MaddpgTrainer, calls: list) -> None:
    """Record the clock at every policy call of one trainer instance."""
    nominal = trainer.nominal_actions

    def nominal_actions(obs, sigma):
        calls.append(_perf())
        return nominal(obs, sigma)

    trainer.nominal_actions = nominal_actions


class AdversarialWorkload:
    """The forward-invariance protocol with a worst-case nominal, driven tick by tick.

    Two agents and one point obstacle in a 100-unit arena, so walls stay
    out of sensing range. Every agent's nominal is full throttle at its
    nearest entity; a tick builds both nominals, filters them and steps
    both agents. Pieces are scenarios.
    """

    name = "adversarial_rollout"
    shielded = True
    n_runs = 1
    mflop_per_update = 0.0

    def __init__(self, scenarios: int, ticks: int):
        self.n_scenarios = scenarios
        self.n_ticks = ticks
        self.planned_steps = scenarios * ticks
        self.params = ShieldParams()
        self.world = WorldConfig(wall_half_extent=100.0)
        self.obstacles = [ObstacleSpec([0.0, 0.0])]
        self.starts: list[list[AgentState]] = []

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.starts = [self._safe_start(rng) for _ in range(self.n_scenarios)]

    def _safe_start(self, rng) -> list[AgentState]:
        params = self.params
        while True:
            p0, p1 = rng.uniform(-1.5, 1.5, 2), rng.uniform(-1.5, 1.5, 2)
            v0, v1 = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            try:
                if h_cooperative(p0 - p1, v0 - v1, params) <= 0:
                    continue
                if any(
                    h_noncooperative(p - o.position, v, params) <= 0
                    for o in self.obstacles
                    for p, v in ((p0, v0), (p1, v1))
                ):
                    continue
            except ValueError:  # inside the unsafe ball
                continue
            return [AgentState(p0, v0), AgentState(p1, v1)]

    def run_unit(self, tracer=None) -> UnitResult:
        """Run every scenario once; a traced unit tags spans with the tick id."""
        # looked up per unit so that an installed tracer's wrappers are used
        filter_action = shield.filter_action
        step_agent = dynamics.step_agent
        world, params, obstacles = self.world, self.params, self.obstacles
        obs_pos = [(float(o.position[0]), float(o.position[1])) for o in obstacles]
        dt, v_max = world.dt, world.v_max
        d_s = params.d_s
        timing = RunTiming()
        kernels = [reference_seconds()]
        rows = []
        failed = 0
        min_sep = math.inf
        tick_id = 0
        for states in self.starts:
            scenario_min = math.inf
            statuses = {}
            ticks = []
            t_piece = _perf()
            for _ in range(self.n_ticks):
                tick_id += 1
                if tracer is not None:
                    tracer.tick = tick_id
                t0 = _perf()
                all_agents = list(enumerate(states))
                pxs = [(float(s.position[0]), float(s.position[1])) for s in states]
                new = []
                for i, s in enumerate(states):
                    x, y = pxs[i]
                    bd, best = math.inf, None
                    for tx, ty in [pxs[1 - i]] + obs_pos:
                        d = math.hypot(x - tx, y - ty)
                        if d < bd:
                            bd, best = d, (tx, ty)
                    n = bd if bd > 1e-9 else 1.0
                    nominal = np.array(((best[0] - x) / n, (best[1] - y) / n))
                    u, report = filter_action(i, nominal, s, all_agents, obstacles, world, params)
                    new.append(step_agent(s, u, dt, v_max))
                    statuses[report.status] = statuses.get(report.status, 0) + 1
                if tracer is None:
                    ticks.append(_perf() - t0)
                states = new
                (x0, y0), (x1, y1) = [(float(s.position[0]), float(s.position[1])) for s in states]
                sep = math.hypot(x0 - x1, y0 - y1)
                for ox, oy in obs_pos:
                    sep = min(sep, math.hypot(x0 - ox, y0 - oy), math.hypot(x1 - ox, y1 - oy))
                if sep <= d_s:
                    failed += 1
                scenario_min = min(scenario_min, sep)
            timing.piece_seconds.append(_perf() - t_piece)
            timing.piece_steps.append(self.n_ticks)
            timing.piece_ticks.append(ticks)
            kernels.append(reference_seconds())
            min_sep = min(min_sep, scenario_min)
            final = np.array([[*s.position, *s.velocity] for s in states])
            rows.append((final.tobytes(), repr(scenario_min), sorted(statuses.items())))
        timing.set_factors(kernels)
        return UnitResult(
            runs=[timing],
            failed_steps=failed,
            min_separation=min_sep,
            digest=_digest(*(f + repr((m, s)).encode() for f, m, s in rows)),
        )


# Sizes of the benchmark workloads; tests build the same classes at tiny sizes.
def make_workload(name: str):
    if name == "train_shielded_b64":
        # acceptance trainer config; 10 episodes run from warm-up into the
        # saturated regime (the filter corrects every agent-step from about
        # episode 10 on). Twelve seeds, because how long a learned policy keeps
        # the filter in its relaxed phase varies by seed from none to ~10% of
        # solves, and the figures take the median run.
        return TrainingWorkload(name, shielded=True, batch_size=64, update_every=8,
                                episodes=10, n_seeds=12)
    if name == "train_unshielded_b256":
        # CLI trainer defaults; 5 warm-up episodes then 5 learning ones
        return TrainingWorkload(name, shielded=False, batch_size=256, update_every=4,
                                episodes=10, n_seeds=2)
    if name == "adversarial_rollout":
        return AdversarialWorkload(scenarios=128, ticks=500)
    raise ValueError(f"unknown workload {name!r}")

