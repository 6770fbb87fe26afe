"""Span tracer that wraps marlshield's layer entry points from outside the package.

`Tracer.install()` swaps module and class attributes for timing wrappers
and `Tracer.uninstall()` puts the originals back; no package source is
touched. Spans (name, start, end, parent, tick) stay in memory in
parallel lists; the benchmark writes them out when it ends.

Names that a package module binds at import time are patched where they
are looked up: `shield._row_core` (shield imports the function from
barriers), `patrol.step_agent` next to `dynamics.step_agent`, and
`maddpg.soft_update` next to `nets.soft_update`. The private
`qp._feasible_start` is wrapped only when it exists, so the tracer keeps
working once the vertex enumeration is gone.
"""

from __future__ import annotations

import math
import time

import numpy as np

_perf = time.perf_counter


class Tracer:
    """In-memory span recorder plus the per-call outcome counts of qp and shield."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ticks: list[int] = []
        self.tick = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # per qp.solve: (constraint rows, status, iterations, kkt residual, span index)
        self.qp_outcomes: list[tuple[int, str, int, float, int]] = []
        # per shield.filter_action: (rows built, report status)
        self.shield_outcomes: list[tuple[int, str]] = []

    def reset(self) -> None:
        """Drop recorded spans and outcomes; patches stay installed."""
        for lst in (self.names, self.starts, self.ends, self.parents, self.ticks,
                    self.qp_outcomes, self.shield_outcomes):
            lst.clear()
        self.tick = 0

    def wrap(self, name, fn, on_result=None, new_tick=False):
        """Timing wrapper around fn; `name` is a string or a function of the call args."""
        names, starts, ends, parents, ticks, stack = (
            self.names, self.starts, self.ends, self.parents, self.ticks, self._stack
        )
        tracer = self

        def wrapper(*args, **kwargs):
            if new_tick:
                tracer.tick += 1
            idx = len(starts)
            names.append(name(args) if callable(name) else name)
            parents.append(stack[-1] if stack else -1)
            ticks.append(tracer.tick)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = _perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_result is not None:
                on_result(idx, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, name, on_result=None, new_tick=False):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result, new_tick))

    def install(self) -> None:
        """Wrap every traced entry point; uninstall() puts the originals back."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        from marlshield import dynamics, maddpg, nets, patrol, qp, shield

        def qp_result(idx, args, sol):
            problem = args[0]
            self.qp_outcomes.append(
                (len(problem.constraints), sol.status, sol.iterations, sol.kkt_residual, idx)
            )

        def shield_result(idx, args, out):
            report = out[1]
            self.shield_outcomes.append((sum(report.constraints_built.values()), report.status))

        def forward_name(args):
            return "nets.forward_b1" if np.ndim(args[1]) == 1 else "nets.forward"

        self._patch(qp, "solve", "qp.solve", on_result=qp_result)
        if hasattr(qp, "_feasible_start"):
            self._patch(qp, "_feasible_start", "qp.feasible_start")
        self._patch(shield, "_row_core", "barriers.row_core")
        self._patch(shield, "filter_action", "shield.filter_action", on_result=shield_result)
        for owner in (dynamics, patrol):
            self._patch(owner, "step_agent", "dynamics.step_agent")
        self._patch(patrol.PatrolEnv, "step", "patrol.step")
        self._patch(patrol.PatrolEnv, "min_entity_distance", "patrol.min_entity_distance")
        trainer = maddpg.MaddpgTrainer
        self._patch(trainer, "nominal_actions", "maddpg.nominal_actions", new_tick=True)
        self._patch(trainer, "shielded_actions", "maddpg.shielded_actions")
        self._patch(trainer, "_update_all", "maddpg.update")
        self._patch(trainer, "run_episode", "maddpg.run_episode")
        self._patch(maddpg.ReplayBuffer, "add", "maddpg.buffer_add")
        self._patch(maddpg.ReplayBuffer, "sample", "maddpg.buffer_sample")
        self._patch(nets.Mlp, "forward", forward_name)
        self._patch(nets.Mlp, "backward", "nets.backward")
        self._patch(nets.Adam, "step", "nets.adam")
        for owner in (nets, maddpg):
            self._patch(owner, "soft_update", "nets.soft_update")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def spans(self):
        """Recorded spans as numpy columns: names, start, end, parent, tick."""
        return (
            np.array(self.names, dtype=object),
            np.array(self.starts),
            np.array(self.ends),
            np.array(self.parents, dtype=np.int64),
            np.array(self.ticks, dtype=np.int64),
        )


def self_times(starts, ends, parents) -> np.ndarray:
    """Span duration minus the time its direct children cover.

    On one thread spans nest by stack discipline, so the direct children of
    a span are disjoint and their coverage is the sum of their durations;
    grandchildren are already inside a child and are not subtracted twice.
    """
    starts = np.asarray(starts, dtype=float)
    dur = np.asarray(ends, dtype=float) - starts
    parents = np.asarray(parents, dtype=np.int64)
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered[: len(dur)]


def _pct_us(values, q) -> float:
    return float(np.percentile(values, q)) * 1e6 if len(values) else 0.0


def update_mflop(actor_dims, critic_dims, n_agents: int, batch: int) -> float:
    """Floating-point work of one `_update_all`, from layer dims (2 flops per multiply-add).

    Per agent: the TD target runs every target actor and one target
    critic, the critic step one forward and one backward, the actor step
    one actor and one critic forward and one backward through each.
    A backward costs two multiply-adds per weight (weight and input
    gradients), a forward one.
    """
    fa = sum(a * b for a, b in zip(actor_dims[:-1], actor_dims[1:]))
    fc = sum(a * b for a, b in zip(critic_dims[:-1], critic_dims[1:]))
    per_agent = (n_agents + 1) * fa + 3 * fc + 2 * (2 * fc) + 2 * fa
    return 2.0 * batch * n_agents * per_agent / 1e6


def layer_metrics(tracer: Tracer, mflop_per_update: float) -> dict:
    """Per-layer figures of one traced work unit; every ratio comes with its base count."""
    _, starts, ends, parents, _ = tracer.spans()
    dur = ends - starts
    selft = self_times(starts, ends, parents)

    groups: dict[str, list[int]] = {}
    for i, n in enumerate(tracer.names):
        groups.setdefault(n, []).append(i)

    def sel(*wanted):
        return np.array([i for n in wanted for i in groups.get(n, ())], dtype=np.int64)

    def calls(*n):
        return len(sel(*n))

    def busy(*n):
        return float(dur[sel(*n)].sum())

    def self_s(*n):
        return float(selft[sel(*n)].sum())

    def p(n, q):
        return _pct_us(dur[sel(n)], q)

    m: dict[str, float] = {}
    qp_calls = len(tracer.qp_outcomes)
    m["qp.solve.calls"] = qp_calls
    m["qp.solve.us_p50"] = p("qp.solve", 50)
    m["qp.solve.us_p99"] = p("qp.solve", 99)
    m["qp.solve.busy_s"] = busy("qp.solve")
    if qp_calls:
        rows, status, iters, kkt, idx = zip(*tracer.qp_outcomes)
        enum_parents = set(parents[sel("qp.feasible_start")].tolist())
        m["qp.rows_mean"] = float(np.mean(rows))
        m["qp.fast_path_share"] = sum(
            1 for s, it in zip(status, iters) if s == "optimal" and it == 0
        ) / qp_calls
        m["qp.vertex_enum_share"] = sum(1 for i in idx if i in enum_parents) / qp_calls
        m["qp.relaxed_share"] = status.count("relaxed") / qp_calls
        m["qp.iterations_mean"] = float(np.mean(iters))
        finite = [k for k in kkt if math.isfinite(k)]
        # a non-finite residual (iteration-cap fallback) fails the gate; report it as 1e300
        m["qp.kkt_residual_max"] = max(finite, default=0.0) if len(finite) == qp_calls else 1e300
    else:
        for key in ("rows_mean", "fast_path_share", "vertex_enum_share", "relaxed_share",
                    "iterations_mean", "kkt_residual_max"):
            m[f"qp.{key}"] = 0.0

    m["barriers.row_core.calls"] = calls("barriers.row_core")
    m["barriers.row_core.busy_s"] = busy("barriers.row_core")

    f_calls = len(tracer.shield_outcomes)
    m["shield.filter_action.calls"] = f_calls
    m["shield.filter_action.us_p50"] = p("shield.filter_action", 50)
    m["shield.filter_action.us_p99"] = p("shield.filter_action", 99)
    m["shield.filter_action.self_s"] = self_s("shield.filter_action")
    if f_calls:
        built, status = zip(*tracer.shield_outcomes)
        m["shield.rows_per_call"] = sum(built) / f_calls
        m["shield.intervention_rate"] = sum(1 for s in status if s != "passthrough") / f_calls
        m["shield.relaxed_share"] = status.count("relaxed") / f_calls
        m["shield.fallback_share"] = status.count("fallback") / f_calls
    else:
        for key in ("rows_per_call", "intervention_rate", "relaxed_share", "fallback_share"):
            m[f"shield.{key}"] = 0.0

    m["dynamics.step_agent.calls"] = calls("dynamics.step_agent")
    m["dynamics.step_agent.busy_s"] = busy("dynamics.step_agent")

    m["patrol.step.us_p50"] = p("patrol.step", 50)
    m["patrol.step.self_s"] = self_s("patrol.step")
    m["patrol.min_entity_distance.busy_s"] = busy("patrol.min_entity_distance")

    update_calls = calls("maddpg.update")
    m["nets.forward_b1.us_p50"] = p("nets.forward_b1", 50)
    m["nets.forward.busy_s"] = busy("nets.forward", "nets.forward_b1")
    m["nets.backward.busy_s"] = busy("nets.backward")
    m["nets.adam.busy_s"] = busy("nets.adam")
    m["nets.soft_update.busy_s"] = busy("nets.soft_update")
    m["nets.update_mflop"] = mflop_per_update if update_calls else 0.0

    m["maddpg.nominal_actions.us_p50"] = p("maddpg.nominal_actions", 50)
    m["maddpg.shielded_actions.us_p50"] = p("maddpg.shielded_actions", 50)
    m["maddpg.update.calls"] = update_calls
    m["maddpg.update.us_p50"] = p("maddpg.update", 50)
    m["maddpg.update.self_s"] = self_s("maddpg.update")
    m["maddpg.buffer_add.busy_s"] = busy("maddpg.buffer_add")
    m["maddpg.buffer_sample.busy_s"] = busy("maddpg.buffer_sample")
    m["maddpg.run_episode.self_s"] = self_s("maddpg.run_episode")

    m["trace.spans"] = len(tracer.names)
    return m
