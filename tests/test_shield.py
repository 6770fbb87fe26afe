import math

import numpy as np
import pytest

import marlshield.qp
import marlshield.shield
from marlshield.barriers import ShieldParams
from marlshield.dynamics import (
    AgentState,
    ObstacleSpec,
    WorldConfig,
    _state_unchecked,
    face_clearances,
    step_agent,
)
from marlshield.maddpg import MaddpgTrainer, TrainerConfig
from marlshield.patrol import PatrolEnv, default_world
from marlshield.qp import kkt_check
from marlshield.shield import (
    STATUS_CORRECTED,
    STATUS_FALLBACK,
    STATUS_PASSTHROUGH,
    STATUS_RELAXED,
    ShieldReport,
    filter_action,
    local_rows,
)

import shield_oracle

PARAMS = ShieldParams()
BIG_WORLD = WorldConfig(wall_half_extent=50.0)
SMALL_WORLD = WorldConfig(wall_half_extent=1.0)


def agents_pair(p0, v0, p1, v1):
    return [(0, AgentState(p0, v0)), (1, AgentState(p1, v1))]


def kinds_in_range(self_id, agents, obstacles, world, params):
    """Row counts by kind from the oracle's independent range rule."""
    near, near_obs, faces = shield_oracle.neighborhood(self_id, agents, obstacles, world, params.r_sense)
    return {"cooperative": len(near), "non-cooperative": len(near_obs), "wall": len(faces)}


class TestNeighborhood:
    def test_everything_within_huge_range(self):
        agents = agents_pair([0, 0], [0, 0], [0.5, 0], [0, 0])
        obstacles = [ObstacleSpec([0.2, 0.2]), ObstacleSpec([-0.7, 0.1])]
        params = ShieldParams(r_sense=1000.0)
        _, _, built, _, _ = local_rows(0, agents[0][1], agents, obstacles, SMALL_WORLD, params)
        assert built == {"cooperative": 1, "non-cooperative": 2, "wall": 4}
        assert built == kinds_in_range(0, agents, obstacles, SMALL_WORLD, params)

    def test_r_sense_invariant_gate(self):
        with pytest.raises(ValueError):
            ShieldParams(r_sense=0.0)

    def test_center_sees_all_faces_at_exactly_one(self):
        agents = [(0, AgentState([0, 0], [0, 0]))]
        params = ShieldParams(r_sense=1.0)
        _, bounds, built, _, _ = local_rows(0, agents[0][1], agents, [], SMALL_WORLD, params)
        assert built == {"cooperative": 0, "non-cooperative": 0, "wall": 4}
        assert built == kinds_in_range(0, agents, [], SMALL_WORLD, params)
        # each wall row's normal points from the agent to its face, at distance 1
        assert [r[:2] for r in bounds] == [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]

    def test_deterministic_order(self):
        agents = [(2, AgentState([0.1, 0], [0, 0])), (0, AgentState([0, 0], [0, 0])), (1, AgentState([0, 0.1], [0, 0]))]
        params = ShieldParams(r_sense=5.0)
        rows, _, built, _, _ = local_rows(0, agents[1][1], agents, [], BIG_WORLD, params)
        assert built == {"cooperative": 2, "non-cooperative": 0, "wall": 0}
        # peers ascend by id: the row of peer 1 (at +y) comes before that of peer 2 (at +x)
        near, _, _ = shield_oracle.neighborhood(0, agents, [], BIG_WORLD, params.r_sense)
        assert [aid for aid, _ in near] == [1, 2]
        assert [r[:2] for r in rows] == [(st.px, st.py) for _, st in near]


class TestFilterAction:
    def test_empty_neighborhood_passthrough(self):
        u = np.array([0.4, -0.7])
        state = AgentState([0, 0], [0.1, 0])
        u_safe, report = filter_action(0, u, state, [(0, state)], [], BIG_WORLD, PARAMS)
        assert report.status == STATUS_PASSTHROUGH
        assert np.array_equal(u_safe, u)
        assert report.constraints_built == {"cooperative": 0, "non-cooperative": 0, "wall": 0}

    def test_head_on_approach_corrected(self):
        # inside the safe set (h > 0) but closing fast enough that the pair
        # row activates and pushes the focal acceleration away
        d = 0.5
        speed = 0.45
        agents = agents_pair([0, 0], [speed, 0], [d, 0], [-speed, 0])
        u = np.array([1.0, 0.0])  # nominal keeps accelerating at the peer
        u_safe, report = filter_action(0, u, agents[0][1], agents, [], BIG_WORLD, PARAMS)
        assert report.status == STATUS_CORRECTED
        dp = np.array([-d, 0.0])  # self - other
        assert float(dp @ u_safe) > float(dp @ u)  # decelerates along the gap
        assert report.constraints_built["cooperative"] == 1

    def test_tangential_motion_near_obstacle_preserved(self):
        gap = PARAMS.d_s + 0.001
        state = AgentState([gap, 0], [0, 0.5])  # circling the obstacle at the halo
        obstacles = [ObstacleSpec([0, 0])]
        u = np.array([0.0, 0.8])  # tangential nominal
        u_safe, report = filter_action(0, u, state, [(0, state)], obstacles, BIG_WORLD, PARAMS)
        assert report.constraints_built["non-cooperative"] == 1
        assert abs(u_safe[1] - u[1]) <= 1e-3
        inward = np.array([0.5, 0.1])  # push into the obstacle
        u_safe2, report2 = filter_action(0, inward, state, [(0, state)], obstacles, BIG_WORLD, PARAMS)
        if report2.status == STATUS_CORRECTED:
            assert abs(u_safe2[1] - inward[1]) <= 1e-3  # tangential part survives

    def test_fallback_inside_unsafe_ball(self):
        agents = agents_pair([0, 0], [0, 0], [0.05, 0], [0, 0])
        u = np.array([0.3, 0.3])
        u_safe, report = filter_action(0, u, agents[0][1], agents, [], BIG_WORLD, PARAMS)
        assert report.status == STATUS_FALLBACK
        away = np.array([-1.0, 0.0])  # straight away from the intruder at full authority
        assert np.allclose(u_safe, away * PARAMS.a_max_self, atol=1e-12)

    def test_fallback_brakes_from_violated_entity_through_survivors(self):
        # obstacle violated, peer merely nearby: brake away from the obstacle,
        # and the surviving pair row shapes rather than blocks the escape
        agents = agents_pair([0, 0], [0, 0], [0.3, 0.1], [0, 0])
        obstacles = [ObstacleSpec([-0.01, 0])]
        u_safe, report = filter_action(0, np.zeros(2), agents[0][1], agents, obstacles, BIG_WORLD, PARAMS)
        assert report.status == STATUS_FALLBACK
        assert u_safe[0] > 0.5  # escape accelerates away from the -x intruder

    def test_sandwiched_emergencies_compromise_without_ramming(self):
        # violated entities on opposite sides: no action satisfies both
        # recovery rows, so the slack compromise must not favor either
        agents = agents_pair([0, 0], [0, 0], [0.06, 0], [0, 0])
        obstacles = [ObstacleSpec([-0.01, 0])]
        u_safe, report = filter_action(0, np.zeros(2), agents[0][1], agents, obstacles, BIG_WORLD, PARAMS)
        assert report.status == STATUS_FALLBACK
        assert np.max(np.abs(u_safe)) <= PARAMS.a_max_self + 1e-12
        assert abs(u_safe[0]) < 1.0  # neither full-throttle direction wins

    def test_stacking_satisfies_every_row(self):
        rng = np.random.default_rng(31)
        world = SMALL_WORLD
        done = 0
        while done < 300:
            p0 = rng.uniform(-0.9, 0.9, 2)
            p1 = rng.uniform(-0.9, 0.9, 2)
            if math.hypot(*(p0 - p1)) <= PARAMS.d_s + 0.01:
                continue
            obstacles = [ObstacleSpec(rng.uniform(-0.8, 0.8, 2)) for _ in range(2)]
            if any(math.hypot(*(p0 - o.position)) <= PARAMS.d_s + 0.01 for o in obstacles):
                continue
            s0 = AgentState(p0, rng.uniform(-1, 1, 2))
            s1 = AgentState(p1, rng.uniform(-1, 1, 2))
            u = rng.uniform(-1, 1, 2)
            u_safe, report = filter_action(0, u, s0, [(0, s0), (1, s1)], obstacles, world, PARAMS)
            if report.status not in (STATUS_PASSTHROUGH, STATUS_CORRECTED):
                continue
            # every row of the stack, one per entity in range, holds at the returned action,
            # the face rows the QP folds into its box as bounds included
            rows, bounds, built, violated, _ = local_rows(0, s0, [(0, s0), (1, s1)], obstacles, world, PARAMS)
            assert not violated
            assert built == kinds_in_range(0, [(0, s0), (1, s1)], obstacles, world, PARAMS)
            for ax, ay, bound in rows + bounds:
                assert float(np.array([ax, ay]) @ u_safe) <= bound + 1e-6
            done += 1

    def test_minimal_interference(self):
        rng = np.random.default_rng(32)
        passed = 0
        while passed < 200:
            p0 = rng.uniform(-0.5, 0.5, 2)
            p1 = p0 + rng.uniform(0.3, 0.9) * np.array([1.0, 0.0])
            s0 = AgentState(p0, rng.uniform(-0.3, 0.3, 2))
            s1 = AgentState(p1, rng.uniform(-0.3, 0.3, 2))
            u = rng.uniform(-0.2, 0.2, 2)
            u_safe, report = filter_action(0, u, s0, [(0, s0), (1, s1)], [], SMALL_WORLD, PARAMS)
            if report.status == STATUS_PASSTHROUGH:
                assert np.array_equal(u_safe, u)
                passed += 1

    def test_decentralization_ignores_far_entities(self):
        state = AgentState([0, 0], [0.2, 0.1])
        peer = AgentState([0.4, 0], [-0.2, 0])
        u = np.array([0.6, -0.3])
        far_a = AgentState([30.0, 30.0], [1, 0])
        far_b = AgentState([-41.0, 12.0], [0, 1])
        obstacles_near = [ObstacleSpec([0.0, 0.5])]
        out1 = filter_action(
            0, u, state, [(0, state), (1, peer), (2, far_a)],
            obstacles_near + [ObstacleSpec([20.0, -20.0])], BIG_WORLD, PARAMS,
        )
        out2 = filter_action(
            0, u, state, [(0, state), (1, peer), (2, far_b)],
            obstacles_near + [ObstacleSpec([-15.0, 33.0])], BIG_WORLD, PARAMS,
        )
        assert np.array_equal(out1[0], out2[0])
        assert out1[1].status == out2[1].status

    def test_status_passthrough_iff_exact(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            p0 = rng.uniform(-0.8, 0.8, 2)
            p1 = rng.uniform(-0.8, 0.8, 2)
            if math.hypot(*(p0 - p1)) <= PARAMS.d_s + 0.01:
                continue
            s0 = AgentState(p0, rng.uniform(-1, 1, 2))
            s1 = AgentState(p1, rng.uniform(-1, 1, 2))
            u = rng.uniform(-1.2, 1.2, 2)
            u_safe, report = filter_action(0, u, s0, [(0, s0), (1, s1)], [], SMALL_WORLD, PARAMS)
            assert (report.status == STATUS_PASSTHROUGH) == np.array_equal(u_safe, u)


def random_arena_calls(rng, count):
    """Seeded filter_action inputs in the 2x2 arena: 1-3 peers, 0-3 obstacles."""
    calls = []
    for _ in range(count):
        agents = [
            (aid, AgentState(rng.uniform(-0.95, 0.95, 2), rng.uniform(-1, 1, 2)))
            for aid in rng.permutation(int(rng.integers(2, 5))).tolist()
        ]
        obstacles = [
            ObstacleSpec(rng.uniform(-0.8, 0.8, 2), float(rng.choice([0.0, 0.05])))
            for _ in range(int(rng.integers(0, 4)))
        ]
        focal = int(rng.integers(0, len(agents)))
        aid, state = agents[focal]
        calls.append((aid, rng.uniform(-1.2, 1.2, 2), state, agents, obstacles, SMALL_WORLD, PARAMS))
    return calls


def row_bits(rows):
    return np.array(rows, dtype=float).reshape(-1, 3).tobytes()


class TestHookContract:
    def test_one_solve_per_call_and_one_row_core_per_entity(self, monkeypatch):
        # the benchmark's tracer wraps qp.solve and shield._row_core by these
        # names; once each qp.solve span has closed it reads kkt_residual,
        # which runs kkt_check then, and gates the run on it
        solutions = []
        row_calls = []
        solve, row_core = marlshield.qp.solve, marlshield.shield._row_core

        def counting_solve(problem):
            sol = solve(problem)
            solutions.append((problem, sol))
            return sol

        def counting_row_core(*args):
            row_calls.append(args)
            return row_core(*args)

        monkeypatch.setattr(marlshield.qp, "solve", counting_solve)
        monkeypatch.setattr(marlshield.shield, "_row_core", counting_row_core)
        rng = np.random.default_rng(42)
        certified = 0
        for aid, u, state, agents, obstacles, world, params in random_arena_calls(rng, 400):
            before_solves, before_rows = len(solutions), len(row_calls)
            filter_action(aid, u, state, agents, obstacles, world, params)
            in_range = sum(kinds_in_range(aid, agents, obstacles, world, params).values())
            assert len(solutions) == before_solves + 1
            assert len(row_calls) == before_rows + in_range
            problem, sol = solutions[-1]
            if sol.status == marlshield.qp.STATUS_OPTIMAL and sol.iterations == 0 and not sol.active_set:
                assert sol.kkt_residual == 0.0  # fast path: nominal returned untouched
                continue
            assert sol.kkt_residual <= 1e-9
            assert sol.kkt_residual == kkt_check(problem, sol)
            certified += 1
        assert certified > 100

    def test_shielded_training_does_no_certificate_work(self, monkeypatch):
        # solve leaves the certificate to whoever reads kkt_residual: a
        # shielded training run calls kkt_check never, and each read once
        solutions, checks = [], []
        solve, check = marlshield.qp.solve, marlshield.qp.kkt_check
        monkeypatch.setattr(marlshield.qp, "solve", lambda p: solutions.append(solve(p)) or solutions[-1])
        monkeypatch.setattr(marlshield.qp, "kkt_check", lambda p, s: checks.append(p) or check(p, s))
        cfg = TrainerConfig(
            episodes=3, episode_len=40, batch_size=4, warmup_transitions=4, update_every=2,
            buffer_capacity=64, actor_hidden=(8, 8), critic_hidden=(8, 8), seed=3,
        )
        MaddpgTrainer(PatrolEnv(default_world(), PARAMS, episode_len=40), cfg).train()
        assert len(solutions) == 240 and checks == []
        # a face bound corrects through the box clip, which scans no candidate
        corrected = [sol for sol in solutions if sol.iterations > 0 or sol.active_set]
        assert len(corrected) > 10
        for n, sol in enumerate(corrected, 1):
            first, second = sol.kkt_residual, sol.kkt_residual
            assert len(checks) == 2 * n and checks[-1] is checks[-2] is sol.problem
            assert first == second <= 1e-9


class TestForwardInvarianceSmoke:
    """Reduced-scale invariance run; the acceptance suite does the full 1000x500."""

    def test_adversarial_head_on_stays_safe(self):
        rng = np.random.default_rng(34)
        world = WorldConfig(wall_half_extent=5.0, dt=0.1, v_max=1.0, a_max=1.0)
        obstacles = [ObstacleSpec([0.0, 0.0])]
        violations = 0
        for _ in range(50):
            states = _random_safe_scenario(rng, obstacles)
            if states is None:
                continue
            min_d = _run_adversarial(states, obstacles, world, PARAMS, steps=200)
            if min_d < PARAMS.d_s - 1e-3:
                violations += 1
        assert violations == 0


def _random_safe_scenario(rng, obstacles):
    from marlshield.barriers import h_cooperative, h_noncooperative

    for _ in range(50):
        p0 = rng.uniform(-1.5, 1.5, 2)
        p1 = rng.uniform(-1.5, 1.5, 2)
        v0 = rng.uniform(-1, 1, 2)
        v1 = rng.uniform(-1, 1, 2)
        try:
            if h_cooperative(p0 - p1, v0 - v1, PARAMS) <= 0:
                continue
            ok = True
            for o in obstacles:
                for p, v in ((p0, v0), (p1, v1)):
                    if h_noncooperative(p - o.position, v, PARAMS) <= 0:
                        ok = False
            if not ok:
                continue
        except ValueError:
            continue
        return [AgentState(p0, v0), AgentState(p1, v1)]
    return None


def _run_adversarial(states, obstacles, world, params, steps=200):
    min_d = math.inf
    for _ in range(steps):
        nominal = []
        for i, s in enumerate(states):
            targets = [states[1 - i].position] + [o.position for o in obstacles]
            dists = [math.hypot(*(s.position - t)) for t in targets]
            t = targets[int(np.argmin(dists))]
            d = t - s.position
            n = math.hypot(*d)
            nominal.append(params.a_max_self * d / n if n > 1e-9 else np.array([1.0, 0.0]))
        all_agents = list(enumerate(states))
        new_states = []
        for i, s in enumerate(states):
            u_safe, _ = filter_action(i, nominal[i], s, all_agents, obstacles, world, params)
            new_states.append(step_agent(s, u_safe, world.dt, world.v_max))
        states = new_states
        d_pair = math.hypot(*(states[0].position - states[1].position))
        min_d = min(min_d, d_pair)
        for o in obstacles:
            for s in states:
                min_d = min(min_d, math.hypot(*(s.position - o.position)))
    return min_d


def bits(x):
    return np.float64(x).tobytes()


def assert_same_violated(violated, ref_violated):
    """Peer and obstacle entries bit for bit; a face's brake direction at unit length, as the package records it."""
    assert len(violated) == len(ref_violated)
    for (h, dx, dy), (ref_h, ref_dx, ref_dy, kind) in zip(violated, ref_violated):
        if kind == "wall":
            r = math.hypot(ref_dx, ref_dy)
            ref_dx, ref_dy = ref_dx / r, ref_dy / r
        assert row_bits([(h, dx, dy)]) == row_bits([(ref_h, ref_dx, ref_dy)])


def split_rows(ref_rows):
    """The reference's rows as `shield.local_rows` returns them: peer and obstacle rows, then face bounds."""
    rows = [(*r.normal.tolist(), r.bound) for r in ref_rows if r.kind != "wall"]
    return rows, [(*r.normal.tolist(), r.bound) for r in ref_rows if r.kind == "wall"]


def compare_filters(args, stats):
    """One call through the filter and the row-wall reference; tally optimal and relaxed solves.

    Status, `min_h` and slack bytes and the kinds built are equal. `u_safe`
    is bit-identical when the solve is relaxed (the slack phase relaxes the
    faces as rows, as the reference does) or no face is in range, and
    within 1e-12 otherwise; it meets each of the reference's face rows
    within the QP's feasibility tolerance, relaxed by the slack.
    """
    u, report = filter_action(*args)
    u_ref, ref = shield_oracle.filter_action(*args)
    assert report.status == ref.status
    assert bits(report.min_h) == bits(ref.min_h)
    assert bits(report.slack) == bits(ref.slack)
    assert report.constraints_built == ref.constraints_built
    if report.slack > 0.0 or report.constraints_built["wall"] == 0:
        assert u.tobytes() == u_ref.tobytes()
    else:
        assert float(np.max(np.abs(u - u_ref))) <= 1e-12
    if report.slack == 0.0:
        stats["qp_optimal"] = stats.get("qp_optimal", 0) + 1
        stats["bit_identical"] = stats.get("bit_identical", 0) + (u.tobytes() == u_ref.tobytes())
    else:
        stats["qp_relaxed"] = stats.get("qp_relaxed", 0) + 1
    for r in shield_oracle.local_rows(*args[:1], *args[2:])[0]:
        if r.kind == "wall":
            (ax, ay), b = r.normal.tolist(), r.bound
            assert ax * u[0] + ay * u[1] <= b + report.slack + marlshield.qp._FEAS_TOL
    return u, report


def check_against_oracle(args, counts):
    """Run one call through the package and the reference, rows first; tally what the call exercised."""
    row_args = args[:1] + args[2:]  # local_rows takes no nominal action
    rows, bounds, built, violated, min_h = local_rows(*row_args)
    ref_rows, ref_built, ref_violated, ref_min_h = shield_oracle.local_rows(*row_args)
    assert all(type(v) is float for r in rows + bounds for v in r)
    ref_kept, ref_bounds = split_rows(ref_rows)
    assert row_bits(rows) == row_bits(ref_kept)
    assert row_bits(bounds) == row_bits(ref_bounds)
    assert [r.kind for r in ref_rows] == [k for k, n in built.items() for _ in range(n)]
    assert built == ref_built
    assert_same_violated(violated, ref_violated)
    assert bits(min_h) == bits(ref_min_h)
    u, report = compare_filters(args, counts)
    counts[report.status] = counts.get(report.status, 0) + 1
    for kind, n in report.constraints_built.items():
        counts[kind] = counts.get(kind, 0) + n
    return u


def near_wall_position(rng):
    """A point of the 2x2 arena with each coordinate within 0.15 of a wall half the time."""
    p = rng.uniform(-0.95, 0.95, 2)
    for k in range(2):
        if rng.random() < 0.5:
            p[k] = rng.choice([-1.0, 1.0]) * (1.0 - rng.uniform(0.0, 0.15))
    return p


def record_training_calls(episodes):
    """The filter_action arguments of a short shielded training run in the stock 2x2 world."""
    cfg = TrainerConfig(
        episodes=episodes, episode_len=100, batch_size=32, warmup_transitions=200, update_every=2,
        actor_hidden=(32, 32), critic_hidden=(32, 32), lr_actor=1e-3, seed=7,
    )
    env = PatrolEnv(default_world(), PARAMS, episode_len=cfg.episode_len)
    calls = []

    def recording(*args):
        calls.append(args)
        return filter_action(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(marlshield.shield, "filter_action", recording)
        MaddpgTrainer(env, cfg, shield_enabled=True).train()
    return calls


def record_adversarial_calls(scenarios, ticks, seed):
    """The filter_action arguments of the forward-invariance protocol: 2 agents, 1 obstacle, walls out of range."""
    rng = np.random.default_rng(seed)
    world = WorldConfig(wall_half_extent=100.0)
    obstacles = [ObstacleSpec([0.0, 0.0])]
    calls = []
    while len(calls) < 2 * scenarios * ticks:
        states = _random_safe_scenario(rng, obstacles)
        if states is None:
            continue
        for _ in range(ticks):
            all_agents = list(enumerate(states))
            new = []
            for i, s in enumerate(states):
                targets = [states[1 - i].position, obstacles[0].position]
                t = min(targets, key=lambda p: math.hypot(*(p - s.position)))
                d = t - s.position
                n = math.hypot(*d)
                args = (i, d / n if n > 1e-9 else np.array([1.0, 0.0]), s, all_agents, obstacles, world, PARAMS)
                calls.append(args)
                new.append(step_agent(s, filter_action(*args)[0], world.dt, world.v_max))
            states = new
    return calls


class TestShieldOracle:
    """`local_rows` and the filter against the array-and-dataclass reference, call by call, bit for bit.

    The recorded training and adversarial calls are the gate a second row
    builder (a batched one, say) must pass as well.
    """

    def test_adversarial_rollouts_in_wide_arena(self, recorded_calls):
        # the benchmark's forward-invariance protocol: worst-case nominal at
        # the nearest entity, two agents and one obstacle, walls out of range
        counts = {}
        for args in recorded_calls["adversarial"]:
            check_against_oracle(args, counts)
        assert counts["wall"] == 0
        assert counts[STATUS_CORRECTED] > 200 and counts[STATUS_PASSTHROUGH] > 200

    def test_wall_and_corner_states_in_small_arena(self):
        rng = np.random.default_rng(62)
        counts = {}
        for _ in range(2000):
            focal = near_wall_position(rng)
            agents = [(0, AgentState(focal, rng.uniform(-1, 1, 2)))]
            for aid in range(1, int(rng.integers(1, 4))):
                p = np.clip(focal + rng.normal(0.0, 0.4, 2), -0.999, 0.999)
                agents.append((aid, AgentState(p, rng.uniform(-1, 1, 2))))
            obstacles = [
                ObstacleSpec(np.clip(focal + rng.normal(0.0, 0.5, 2), -1, 1), float(rng.choice([0.0, 0.05])))
                for _ in range(int(rng.integers(0, 3)))
            ]
            order = rng.permutation(len(agents)).tolist()
            shuffled = [agents[k] for k in order]
            u = rng.uniform(-1.2, 1.2, 2)
            check_against_oracle((0, u, agents[0][1], shuffled, obstacles, SMALL_WORLD, PARAMS), counts)
        # recovery rows (fallback), plain corrections and shared-slack solves all occur
        assert counts[STATUS_FALLBACK] > 700 and counts[STATUS_CORRECTED] > 150 and counts["relaxed"] > 10
        assert counts["wall"] > 4000 and counts["cooperative"] > 1000 and counts["non-cooperative"] > 1000

    def test_recorded_training_states(self, recorded_calls):
        # every filter call of a short shielded training run in the stock
        # 2x2 world: 1 peer, 3 obstacles and 4 wall faces in range, and past
        # warm-up the policy saturates, so most calls are corrected
        counts = {}
        for args in recorded_calls["training"]:
            check_against_oracle(args, counts)
        calls = 2 * 12 * 100
        statuses = (STATUS_PASSTHROUGH, STATUS_CORRECTED, STATUS_RELAXED, STATUS_FALLBACK)
        assert sum(counts[s] for s in statuses) == calls
        assert counts["cooperative"] == calls and counts["non-cooperative"] == 3 * calls
        assert counts["wall"] == 4 * calls
        assert counts[STATUS_CORRECTED] > 1400 and counts[STATUS_RELAXED] > 200
        assert counts[STATUS_PASSTHROUGH] > 100 and counts[STATUS_FALLBACK] >= 1

    def test_report_fields_and_defaults(self):
        u = np.array([0.1, -0.2])
        first, second = ShieldReport(0, u, u), ShieldReport(1, u, u)
        assert first.constraints_built == {} and first.constraints_built is not second.constraints_built
        assert (first.status, first.min_h, first.slack) == (STATUS_PASSTHROUGH, math.inf, 0.0)
        report = ShieldReport(2, u, u, {"wall": 1}, STATUS_CORRECTED, 0.5, 0.25)
        assert repr(report) == (
            "ShieldReport(agent_id=2, u_nominal=array([ 0.1, -0.2]), u_safe=array([ 0.1, -0.2]), "
            "constraints_built={'wall': 1}, status='corrected', min_h=0.5, slack=0.25)"
        )


def narrow_arena_calls(rng, count):
    """filter_action inputs in arenas of half extent 0.06 to 0.3: 1-2 agents, 0-1 obstacles.

    Both faces of an axis are in range and often violated, so their
    bounds cross and the folded box is empty.
    """
    calls = []
    for _ in range(count):
        e = float(rng.uniform(0.06, 0.3))
        agents = [(aid, AgentState(rng.uniform(-e, e, 2), rng.uniform(-1, 1, 2))) for aid in range(rng.integers(1, 3))]
        obstacles = [ObstacleSpec(rng.uniform(-0.9 * e, 0.9 * e, 2)) for _ in range(rng.integers(0, 2))]
        world = WorldConfig(wall_half_extent=e)
        calls.append((0, rng.uniform(-1.2, 1.2, 2), agents[0][1], agents, obstacles, world, PARAMS))
    return calls


class TestWallBounds:
    """Faces as bounds of the QP against the reference's faces as rows.

    `compare_filters` holds call by call; optimal and relaxed solves are
    counted (`pytest -s` prints the tallies).
    """

    def test_recorded_calls(self, recorded_calls):
        stats = {}
        for args in recorded_calls["training"] + recorded_calls["adversarial"]:
            compare_filters(args, stats)
        print(f"\nrecorded calls, faces as bounds vs rows: {stats}")
        assert stats["qp_optimal"] + stats["qp_relaxed"] == 2 * 12 * 100 + 2 * 10 * 100
        assert stats["qp_optimal"] > 3000 and stats["qp_relaxed"] > 100
        assert stats["bit_identical"] > 2000

    def test_narrow_arenas(self):
        counts, empty = {}, 0
        for args in narrow_arena_calls(np.random.default_rng(63), 1500):
            rows, bounds, _, _, _ = local_rows(*args[:1], *args[2:])
            lox, hix, loy, hiy = marlshield.qp.QpProblem(np.zeros(2), rows, PARAMS.a_max_self, 1e6, bounds).limits
            check_against_oracle(args, counts)
            if lox > hix or loy > hiy:
                # crossed faces leave no action in the box: the slack phase arbitrates them
                empty += 1
                assert filter_action(*args)[1].slack > 0.0
        print(f"\nnarrow arenas, faces as bounds vs rows: {counts}, empty folded box: {empty}")
        assert empty > 100 and counts["qp_optimal"] > 100 and counts["qp_relaxed"] > 100
        assert counts[STATUS_FALLBACK] > 500

    @pytest.mark.parametrize("face", ["+x", "-x", "+y", "-y"])
    def test_agent_on_a_face_brakes_off_it(self, face):
        # exactly on a face the offset to it is (0, 0): the violated face still
        # gets its recovery bound, and the fallback brakes along its inward axis
        # instead of along +x, which drove the agent through the +x face
        e, a = SMALL_WORLD.wall_half_extent, PARAMS.a_max_self
        inward = {"+x": (-1.0, 0.0), "-x": (1.0, 0.0), "+y": (0.0, -1.0), "-y": (0.0, 1.0)}[face]
        along = (-inward[1], inward[0])
        position = [-e * c + 0.3 * t for c, t in zip(inward, along)]
        velocity = [-0.05 * c + 0.4 * t for c, t in zip(inward, along)]  # slightly outward, mostly along
        state = AgentState(position, velocity)
        args = (0, np.zeros(2), state, [(0, state)], [], SMALL_WORLD, PARAMS)
        rows, bounds, built, violated, _ = local_rows(*args[:1], *args[2:])
        assert built["wall"] == 4 and [(dx, dy) for _, dx, dy in violated] == [inward]
        assert (-inward[0], -inward[1], -a) in bounds
        u, report = compare_filters(args, {})
        assert report.status == STATUS_FALLBACK and float(u @ inward) == a  # full braking off the face
        for _ in range(5):
            state = step_agent(state, u, SMALL_WORLD.dt, SMALL_WORLD.v_max)
            assert max(abs(state.px), abs(state.py)) < e
            u, _ = filter_action(0, np.zeros(2), state, [(0, state)], [], SMALL_WORLD, PARAMS)


class TestWallFaceSkip:
    E, R = 50.0, 2.5

    def unpruned(self, position):
        return [f for f in face_clearances(np.array(position), self.E) if f[2] <= self.R]

    def faces(self, position):
        """The wall rows `local_rows` builds, as (normal, distance) pairs."""
        world = WorldConfig(wall_half_extent=self.E)
        state = AgentState(position, [0.0, 0.0])
        rows, bounds, built, _, _ = local_rows(0, state, [(0, state)], [], world, PARAMS)
        assert built["wall"] == len(bounds) and rows == []
        return [((ax, ay), math.hypot(ax, ay)) for ax, ay, _ in bounds]

    def expected(self, position):
        return [((px - position[0], py - position[1]), dist) for _, (px, py), dist in self.unpruned(position)]

    def test_same_faces_around_the_threshold(self):
        edge = self.E - self.R  # e - max(|x|, |y|) == r_sense exactly
        seen = 0
        for c in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, self.E)):
            for position in ((c, 0.0), (-c, 1.0), (3.0, c), (-2.0, -c), (c, -c), (-c, c), (c, 0.5 * c)):
                expected = self.expected(position)
                assert self.faces(position) == expected
                seen += len(expected)
        assert seen >= 14  # the faces at exactly r_sense are kept (inclusive range)
        assert self.faces((0.0, 0.0)) == [] == self.unpruned((0.0, 0.0))

    def test_outside_and_non_finite_positions_still_raise(self):
        world = WorldConfig(wall_half_extent=self.E)
        for position in ((50.5, 0.0), (0.0, -51.0), (0.0, np.nan), (np.nan, 0.0), (np.inf, 0.0), (0.0, -np.inf)):
            state = _state_unchecked(*position, 0.0, 0.0)  # AgentState itself refuses such values
            with pytest.raises(ValueError):
                local_rows(0, state, [(0, state)], [], world, PARAMS)
