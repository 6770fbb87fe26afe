import math

import numpy as np
import pytest

import marlshield.qp
import marlshield.shield
from marlshield.barriers import ShieldParams, cooperative_constraint, noncooperative_constraint
from marlshield.dynamics import AgentState, ObstacleSpec, WorldConfig, face_clearances, step_agent
from marlshield.qp import kkt_check
from marlshield.shield import (
    STATUS_CORRECTED,
    STATUS_FALLBACK,
    STATUS_PASSTHROUGH,
    ShieldReport,
    filter_action,
    neighborhood,
)

import shield_oracle

PARAMS = ShieldParams()
BIG_WORLD = WorldConfig(wall_half_extent=50.0)
SMALL_WORLD = WorldConfig(wall_half_extent=1.0)


def agents_pair(p0, v0, p1, v1):
    return [(0, AgentState(p0, v0)), (1, AgentState(p1, v1))]


class TestNeighborhood:
    def test_everything_within_huge_range(self):
        agents = agents_pair([0, 0], [0, 0], [0.5, 0], [0, 0])
        obstacles = [ObstacleSpec([0.2, 0.2]), ObstacleSpec([-0.7, 0.1])]
        n, o, w = neighborhood(0, agents, obstacles, SMALL_WORLD, r_sense=1000.0)
        assert [aid for aid, _ in n] == [1]
        assert len(o) == 2
        assert [f for f, _, _ in w] == ["+x", "-x", "+y", "-y"]

    def test_r_sense_invariant_gate(self):
        with pytest.raises(ValueError):
            ShieldParams(r_sense=0.0)

    def test_center_sees_all_faces_at_exactly_one(self):
        agents = [(0, AgentState([0, 0], [0, 0]))]
        _, _, faces = neighborhood(0, agents, [], SMALL_WORLD, r_sense=1.0)
        assert [f for f, _, _ in faces] == ["+x", "-x", "+y", "-y"]
        assert all(math.isclose(d, 1.0) for _, _, d in faces)

    def test_deterministic_order(self):
        agents = [(2, AgentState([0.1, 0], [0, 0])), (0, AgentState([0, 0], [0, 0])), (1, AgentState([0, 0.1], [0, 0]))]
        n, _, _ = neighborhood(0, agents, [], BIG_WORLD, r_sense=5.0)
        assert [aid for aid, _ in n] == [1, 2]


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
            # rebuild every row independently and check the returned action
            cons = []
            if math.hypot(*(p0 - p1)) <= PARAMS.r_sense:
                cons.append(cooperative_constraint(s0, s1, PARAMS))
            for o in obstacles:
                if math.hypot(*(p0 - o.position)) <= PARAMS.r_sense:
                    cons.append(noncooperative_constraint(s0, o, PARAMS))
            for face, point, dist in face_clearances(p0, world.wall_half_extent):
                if dist <= PARAMS.r_sense:
                    cons.append(
                        noncooperative_constraint(s0, ObstacleSpec(point), PARAMS, kind="wall")
                    )
            for c in cons:
                assert c is not None
                assert float(c.normal @ u_safe) <= c.bound + 1e-6
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


def row_bits(c):
    return (c.normal.tobytes(), np.float64(c.bound).tobytes(), c.kind, c.counterpart_id)


class TestBuilderAgreement:
    def test_public_builders_match_filter_rows(self, monkeypatch):
        # the rows the filter hands to qp.solve, recovery rows aside, are the
        # rows the public builders emit for the same in-range entities
        problems = []
        solve = marlshield.qp.solve

        def capture(problem):
            problems.append(problem)
            return solve(problem)

        monkeypatch.setattr(marlshield.qp, "solve", capture)
        rng = np.random.default_rng(41)
        compared = walls = 0
        for aid, u, state, agents, obstacles, world, params in random_arena_calls(rng, 400):
            filter_action(aid, u, state, agents, obstacles, world, params)
            near, near_obs, faces = neighborhood(aid, agents, obstacles, world, params.r_sense)
            expected = [(oid, cooperative_constraint(state, other, params, oid)) for oid, other in near]
            expected += [
                (("obstacle", k), noncooperative_constraint(state, o, params, ("obstacle", k)))
                for k, o in enumerate(near_obs)
            ]
            expected += [
                (("wall", face), noncooperative_constraint(
                    state, ObstacleSpec(point), params, ("wall", face), kind="wall"
                ))
                for face, point, _ in faces
            ]
            expected = [row_bits(c) for _, c in expected if c is not None]
            ids = {bits[3] for bits in expected}
            got = [row_bits(c) for c in problems[-1].constraints if c.counterpart_id in ids]
            assert got == expected
            compared += len(expected)
            walls += sum(bits[2] == "wall" for bits in expected)
        assert walls > 1000 and compared > 2000


class TestHookContract:
    def test_one_solve_per_call_and_one_row_core_per_entity(self, monkeypatch):
        # the benchmark's tracer wraps qp.solve and shield._row_core by these
        # names and reads kkt_residual from every solve
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
            near, near_obs, faces = neighborhood(aid, agents, obstacles, world, params.r_sense)
            assert len(solutions) == before_solves + 1
            assert len(row_calls) == before_rows + len(near) + len(near_obs) + len(faces)
            problem, sol = solutions[-1]
            if sol.status == marlshield.qp.STATUS_OPTIMAL and sol.iterations == 0 and not sol.active_set:
                assert sol.kkt_residual == 0.0  # fast path: nominal returned untouched
                continue
            assert sol.kkt_residual <= 1e-9
            assert sol.kkt_residual == kkt_check(problem, sol)
            certified += 1
        assert certified > 100


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


def check_against_oracle(args, counts):
    """Run one call through the package and the reference; tally what the call exercised."""
    u, report = filter_action(*args)
    u_ref, ref = shield_oracle.filter_action(*args)
    assert u.tobytes() == u_ref.tobytes()
    assert report.status == ref.status
    assert bits(report.min_h) == bits(ref.min_h)
    assert bits(report.slack) == bits(ref.slack)
    assert report.constraints_built == ref.constraints_built
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


class TestShieldOracle:
    """The float-native filter against the array-and-dataclass reference, call by call."""

    def test_adversarial_rollouts_in_wide_arena(self):
        # the benchmark's forward-invariance protocol: worst-case nominal at
        # the nearest entity, two agents and one obstacle, walls out of range
        rng = np.random.default_rng(61)
        world = WorldConfig(wall_half_extent=100.0)
        obstacles = [ObstacleSpec([0.0, 0.0])]
        counts = {}
        calls = 0
        while calls < 2000:
            states = _random_safe_scenario(rng, obstacles)
            if states is None:
                continue
            for _ in range(100):
                all_agents = list(enumerate(states))
                new = []
                for i, s in enumerate(states):
                    targets = [states[1 - i].position, obstacles[0].position]
                    t = min(targets, key=lambda p: math.hypot(*(p - s.position)))
                    d = t - s.position
                    n = math.hypot(*d)
                    nominal = d / n if n > 1e-9 else np.array([1.0, 0.0])
                    u = check_against_oracle((i, nominal, s, all_agents, obstacles, world, PARAMS), counts)
                    new.append(step_agent(s, u, world.dt, world.v_max))
                    calls += 1
                states = new
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


class TestWallFaceSkip:
    E, R = 50.0, 2.5

    def unpruned(self, position):
        return [f for f in face_clearances(np.array(position), self.E) if f[2] <= self.R]

    def faces(self, position):
        world = WorldConfig(wall_half_extent=self.E)
        return neighborhood(0, [(0, AgentState(position, [0.0, 0.0]))], [], world, self.R)[2]

    def test_same_faces_around_the_threshold(self):
        edge = self.E - self.R  # e - max(|x|, |y|) == r_sense exactly
        seen = 0
        for c in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, self.E)):
            for position in ((c, 0.0), (-c, 1.0), (3.0, c), (-2.0, -c), (c, -c), (-c, c), (c, 0.5 * c)):
                expected = self.unpruned(position)
                assert self.faces(position) == expected
                seen += len(expected)
        assert seen >= 14  # the faces at exactly r_sense are kept (inclusive range)
        assert self.faces((0.0, 0.0)) == [] == self.unpruned((0.0, 0.0))

    def test_outside_and_non_finite_positions_still_raise(self):
        world = WorldConfig(wall_half_extent=self.E)
        for position in ((50.5, 0.0), (0.0, -51.0), (0.0, np.nan), (np.nan, 0.0), (np.inf, 0.0), (0.0, -np.inf)):
            state = AgentState([0.0, 0.0], [0.0, 0.0])
            state.position[:] = position  # AgentState itself refuses such values
            with pytest.raises(ValueError):
                neighborhood(0, [(0, state)], [], world, self.R)
