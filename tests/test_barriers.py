import math

import numpy as np
import pytest

from marlshield.barriers import (
    GAP_FLOOR,
    InsideUnsafeBall,
    ShieldParams,
    cbf_condition_residual,
    h_cooperative,
    h_noncooperative,
    h_rate,
    _row_core,
)
from marlshield.dynamics import AgentState, ObstacleSpec, WorldConfig
from marlshield.shield import local_rows

PARAMS = ShieldParams()  # d_s=0.075, caps 1.0, gammas 0.5
P0 = ShieldParams(margin=0.0)  # literal bound formulas, no sampled-data guard
# an arena whose walls lie far outside sensing range, so each call below sees one entity
OPEN = WorldConfig(wall_half_extent=100.0)


class Row:
    """One (ax, ay, b) row of `local_rows` as a normal array and a bound."""

    def __init__(self, row):
        ax, ay, self.bound = row
        self.normal = np.array([ax, ay])


def only_row(self_state, peers, obstacles, params):
    """The row `local_rows` builds for the one entity in range; None if it is violated."""
    rows, bounds, built, violated, _ = local_rows(0, self_state, peers, obstacles, OPEN, params)
    assert len(rows) == 1 and built["wall"] == 0 and bounds == []
    return None if violated else Row(rows[0])


def peer_row(self_state, other_state, params):
    return only_row(self_state, [(1, other_state)], [], params)


def obstacle_row(self_state, obstacle, params):
    return only_row(self_state, [], [obstacle], params)


def closed_form_flow(p, v, a, t):
    """Exact double-integrator flow under constant acceleration."""
    p = np.asarray(p, float)
    v = np.asarray(v, float)
    a = np.asarray(a, float)
    return p + v * t + 0.5 * a * t * t, v + a * t


class TestBarrierValues:
    def test_cooperative_hand_value(self):
        # direct hand evaluation: -0.5 + sqrt(2*2*(1 - 0.075))
        h = h_cooperative([1, 0], [-0.5, 0], PARAMS)
        assert math.isclose(h, -0.5 + math.sqrt(4 * 0.925), rel_tol=0, abs_tol=1e-12)
        assert math.isclose(h, 1.42354, abs_tol=5e-6)

    def test_cooperative_boundary_limit(self):
        prev = math.inf
        for eps in (1e-2, 1e-4, 1e-6, 1e-8):
            h = h_cooperative([PARAMS.d_s + eps, 0], [0, 0], PARAMS)
            assert 0.0 < h < prev
            prev = h
        assert prev < 1e-3

    def test_default_safe_distance(self):
        assert PARAMS.d_s == 0.075

    def test_noncooperative_hand_value(self):
        h = h_noncooperative([1, 0], [0, 0], PARAMS)
        assert math.isclose(h, math.sqrt(2 * 0.925), abs_tol=1e-12)
        assert math.isclose(h, 1.36015, abs_tol=5e-6)

    def test_noncooperative_headon_boundary(self):
        speed = math.sqrt(2 * 1.0 * (1.0 - PARAMS.d_s))
        h = h_noncooperative([1, 0], [-speed, 0], PARAMS)
        assert abs(h) < 1e-12

    def test_monotone_in_braking_authority(self):
        strong = ShieldParams(a_max_self=2.0)
        h1 = h_noncooperative([1, 0], [-0.3, 0.1], PARAMS)
        h2 = h_noncooperative([1, 0], [-0.3, 0.1], strong)
        assert h2 > h1

    def test_swap_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            dp = rng.uniform(-1, 1, 2)
            if np.hypot(*dp) <= PARAMS.d_s + 1e-3:
                continue
            dv = rng.uniform(-1, 1, 2)
            assert math.isclose(
                h_cooperative(dp, dv, PARAMS), h_cooperative(-dp, -dv, PARAMS), rel_tol=1e-12
            )

    def test_inside_unsafe_ball_signals(self):
        with pytest.raises(InsideUnsafeBall):
            h_cooperative([0.05, 0], [0, 0], PARAMS)
        with pytest.raises(InsideUnsafeBall):
            h_noncooperative([0.03, 0.04], [0, 0], PARAMS)

    def test_boundary_consistency_with_safe_set(self):
        # the safe-set membership inequality flips exactly where h crosses 0
        rng = np.random.default_rng(9)
        dacc = PARAMS.a_max_self + PARAMS.a_max_other
        for _ in range(300):
            r = PARAMS.d_s + 10 ** rng.uniform(-4, 0)
            ang = rng.uniform(0, 2 * math.pi)
            dp = np.array([r * math.cos(ang), r * math.sin(ang)])
            dv = rng.uniform(-2, 2, 2)
            h = h_cooperative(dp, dv, PARAMS)
            member = -float(dp @ dv) / r <= math.sqrt(2 * dacc * (r - PARAMS.d_s))
            if abs(h) > 1e-9:
                assert member == (h > 0)


class TestConstraints:
    def test_receding_pair_inactive_for_any_box_action(self):
        a = AgentState([1, 0], [0.5, 0])
        b = AgentState([0, 0], [0, 0])
        con = peer_row(a, b, P0)
        # evaluate the pairwise right-hand side directly at dp=(1,0), dv=(0.5,0)
        sigma, r = 0.5, 1.0
        dacc = 2.0
        h = sigma / r + math.sqrt(2 * dacc * (r - P0.d_s))
        full = (
            P0.gamma_coo * h**3 * r
            - sigma**2 / r**2
            + 0.25
            + dacc * sigma / math.sqrt(2 * dacc * (r - P0.d_s))
        )
        assert math.isclose(con.bound, full / 2.0, rel_tol=1e-12)
        assert full > P0.a_max_self * r  # exceeds the worst box action
        worst_lhs = abs(con.normal[0]) + abs(con.normal[1])  # max of normal.u over the box
        assert con.bound > worst_lhs

    def test_pair_normals_are_negations(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            pa = rng.uniform(-1, 1, 2)
            pb = pa + rng.uniform(0.2, 1.0) * np.array(
                [math.cos(rng.uniform(0, 6.28)), math.sin(rng.uniform(0, 6.28))]
            )
            va, vb = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            ca = peer_row(AgentState(pa, va), AgentState(pb, vb), P0)
            cb = peer_row(AgentState(pb, vb), AgentState(pa, va), P0)
            if ca is None or cb is None:
                continue
            assert np.allclose(ca.normal, -cb.normal, atol=0)
            assert math.isclose(ca.bound, cb.bound, rel_tol=1e-12)

    def test_gamma_scales_first_term_linearly(self):
        a = AgentState([0.2, 0.1], [-0.3, 0.2])
        b = AgentState([-0.4, -0.2], [0.1, 0.0])
        doubled = ShieldParams(gamma_coo=1.0, margin=0.0)
        c1 = peer_row(a, b, P0)
        c2 = peer_row(a, b, doubled)
        dp = a.position - b.position
        dv = a.velocity - b.velocity
        r = float(np.hypot(*dp))
        h = h_cooperative(dp, dv, P0)
        # emitted bounds carry the 1/2 split of the pairwise condition
        assert math.isclose(c2.bound - c1.bound, 0.5 * P0.gamma_coo * h**3 * r, rel_tol=1e-9)

    def test_resting_agent_near_obstacle_feasible(self):
        agent = AgentState([0.3, 0], [0, 0])
        obs = ObstacleSpec([0, 0])
        con = obstacle_row(agent, obs, P0)
        r = 0.3
        h = math.sqrt(2 * 1.0 * (r - P0.d_s))
        assert math.isclose(con.bound, P0.gamma_non * h**3 * r, rel_tol=1e-12)
        assert con.bound > 0.0  # u = 0 feasible

    def test_moving_away_all_terms_nonnegative(self):
        agent = AgentState([0.5, 0], [0.4, 0])  # directly away from the obstacle
        obs = ObstacleSpec([0, 0])
        con = obstacle_row(agent, obs, P0)
        sigma = 0.5 * 0.4
        r = 0.5
        gap = r - P0.d_s
        terms = [
            P0.gamma_non * h_noncooperative([0.5, 0], [0.4, 0], P0) ** 3 * r,
            -(sigma**2) / r**2 + 0.4**2,  # |v|^2 dominates the radial square
            1.0 * sigma / math.sqrt(2 * gap),
        ]
        assert all(t >= 0 for t in terms)
        assert con.bound >= sum(t for t in terms) - 1e-12
        # constraint inactive for every box action
        assert con.bound > abs(con.normal[0]) + abs(con.normal[1])

    def test_violated_set_returns_none(self):
        inside = AgentState([0.05, 0], [0, 0])
        assert peer_row(inside, AgentState([0, 0], [0, 0]), P0) is None
        fast = AgentState([0.3, 0], [-3.0, 0])  # h < 0: overshooting approach
        assert obstacle_row(fast, ObstacleSpec([0, 0]), P0) is None

    def test_obstacle_radius_inflates_safe_distance(self):
        agent = AgentState([0.5, 0], [0, 0])
        fat = ObstacleSpec([0, 0], radius=0.2)
        con = obstacle_row(agent, fat, P0)
        h_expected = math.sqrt(2 * 1.0 * (0.5 - 0.2 - P0.d_s))
        assert math.isclose(con.bound, P0.gamma_non * h_expected**3 * 0.5, rel_tol=1e-12)
        assert obstacle_row(AgentState([0.27, 0], [0, 0]), fat, P0) is None

    def test_margin_equals_shifted_safe_distance(self):
        # the sampled-data guard only shifts the safe distance inside bounds
        guarded = ShieldParams(margin=0.03)
        shifted = ShieldParams(d_s=guarded.d_s + 0.03, margin=0.0)
        a = AgentState([0.4, 0.2], [-0.5, 0.1])
        b = AgentState([-0.2, -0.1], [0.3, 0.0])
        c1 = peer_row(a, b, guarded)
        c2 = peer_row(a, b, shifted)
        assert math.isclose(c1.bound, c2.bound, rel_tol=1e-15)
        o1 = obstacle_row(a, ObstacleSpec([0, 0]), guarded)
        o2 = obstacle_row(a, ObstacleSpec([0, 0]), shifted)
        assert math.isclose(o1.bound, o2.bound, rel_tol=1e-15)


class TestRowCoreGuardBand:
    """`_row_core`'s three gap regimes and its violated branch, against bounds written out by hand.

    One entity on the +x axis at distance r, true safe distance 0.075,
    margin 0.02, braking authority 1, gamma 0.5; w is the velocity term.
    """

    D_S, MARGIN, DACC, GAMMA = 0.075, 0.02, 1.0, 0.5

    def core(self, r, wx, wy):
        return _row_core(r, 0.0, wx, wy, self.GAMMA, self.DACC, self.D_S, self.MARGIN)

    def test_outside_the_band_uses_the_shifted_gap_and_keeps_credits(self):
        # gap - margin = 0.905 > GAP_FLOOR; receding at 0.3 and sliding at 0.4
        bound, h = self.core(1.0, 0.3, 0.4)
        brake = math.sqrt(2 * 1.0 * (1.0 - 0.075 - 0.02))
        assert math.isclose(h, 0.3 + brake, rel_tol=1e-15)
        credit = 0.3**2 + 0.4**2 + 1.0 * 0.3 / brake
        assert math.isclose(bound, 0.5 * h**3 - 0.3**2 + credit, rel_tol=1e-13)
        assert bound > 0.5 * h**3 - 0.3**2 + 0.1  # the credits are banked

    def test_inside_the_band_uses_the_true_gap_and_caps_positive_credits(self):
        r = 0.075 + 0.01  # gap_true 0.01, gap_true - margin < 0: in the band
        brake = math.sqrt(2 * 1.0 * (r - 0.075))
        # receding: curvature and recession credits are positive, so both drop to 0
        bound, h = self.core(r, 0.2, 0.5)
        assert math.isclose(h, 0.2 + brake, rel_tol=1e-13)
        assert math.isclose(bound, 0.5 * h**3 * r - 0.2**2, rel_tol=1e-13)
        # approaching: the credit sum is negative, a braking demand, and survives
        bound, h = self.core(r, -0.1, 0.0)
        assert math.isclose(h, -0.1 + brake, rel_tol=1e-12) and h > 0
        credit = 0.1**2 + 1.0 * (-0.1 * r) / brake
        assert credit < 0
        assert math.isclose(bound, 0.5 * h**3 * r - 0.1**2 + credit, rel_tol=1e-12)

    def test_gap_below_the_floor_is_floored(self):
        r = 0.075 + 5e-7  # 0 < gap_true < GAP_FLOOR
        assert 0.0 < r - 0.075 < GAP_FLOOR
        bound, h = self.core(r, 0.0, 0.0)
        assert h == math.sqrt(2.0 * 1.0 * GAP_FLOOR)
        assert math.isclose(bound, 0.5 * h**3 * r, rel_tol=1e-15)

    @pytest.mark.parametrize("r", [0.075, 0.05, 0.0])
    def test_no_row_at_or_inside_the_safe_distance(self, r):
        bound, h = self.core(r, -0.3, 0.2)
        radial = -0.3 if r > 0.0 else 0.0
        assert bound is None
        assert h == radial - math.sqrt(-2.0 * 1.0 * (r - 0.075))


class TestConditionResidual:
    def test_stationary_barrier_satisfies(self):
        assert cbf_condition_residual(0.7, 0.0, 0.5) == -0.5 * 0.7

    def test_algebraic_boundary(self):
        assert abs(cbf_condition_residual(1.0, -0.5, 0.5)) < 1e-15

    def test_violation_positive(self):
        assert math.isclose(cbf_condition_residual(1.0, -1.0, 0.5), 0.5, abs_tol=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            cbf_condition_residual(0.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            cbf_condition_residual(-1.0, 0.0, 0.5)


class TestDerivationCrossChecks:
    def test_constraint_iff_condition_cooperative(self):
        # the emitted linear row (pre-split) holds exactly when the
        # controlled-growth residual with the analytic rate is nonpositive
        rng = np.random.default_rng(12)
        checked = 0
        dacc = P0.a_max_self + P0.a_max_other
        while checked < 400:
            dp = rng.uniform(-1, 1, 2)
            r = float(np.hypot(*dp))
            if r <= P0.d_s + 1e-3:
                continue
            dv = rng.uniform(-1.5, 1.5, 2)
            a = AgentState(np.zeros(2) + dp, dv)
            b = AgentState(np.zeros(2), np.zeros(2))
            con = peer_row(a, b, P0)
            if con is None:
                continue
            du = rng.uniform(-2, 2, 2)  # relative acceleration sample
            lhs = float(con.normal @ du)
            margin = lhs - 2.0 * con.bound  # undo the split for the pairwise row
            h = h_cooperative(dp, dv, P0)
            resid = cbf_condition_residual(h, h_rate(dp, dv, du, dacc, P0.d_s), P0.gamma_coo)
            if abs(margin) < 1e-9 or abs(resid) < 1e-9:
                continue
            assert (margin <= 0) == (resid <= 0)
            checked += 1

    def test_constraint_iff_condition_noncooperative(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 400:
            pos = rng.uniform(-1, 1, 2)
            r = float(np.hypot(*pos))
            if r <= P0.d_s + 1e-3:
                continue
            v = rng.uniform(-1.5, 1.5, 2)
            agent = AgentState(pos, v)
            con = obstacle_row(agent, ObstacleSpec([0, 0]), P0)
            if con is None:
                continue
            u = rng.uniform(-1, 1, 2)
            margin = float(con.normal @ u) - con.bound
            h = h_noncooperative(pos, v, P0)
            resid = cbf_condition_residual(
                h, h_rate(pos, v, u, P0.a_max_self, P0.d_s), P0.gamma_non
            )
            if abs(margin) < 1e-9 or abs(resid) < 1e-9:
                continue
            assert (margin <= 0) == (resid <= 0)
            checked += 1

    def test_analytic_rate_matches_finite_differences(self):
        # central differences along the exact constant-acceleration flow
        rng = np.random.default_rng(14)
        dacc = P0.a_max_self + P0.a_max_other
        checked = 0
        while checked < 200:
            pa = rng.uniform(-1, 1, 2)
            pb = rng.uniform(-1, 1, 2)
            if math.hypot(*(pa - pb)) <= P0.d_s + 1e-3:
                continue
            va, vb = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            aa, ab = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            delta = 1e-5
            hs = []
            for t in (-delta, delta):
                qa, wa = closed_form_flow(pa, va, aa, t)
                qb, wb = closed_form_flow(pb, vb, ab, t)
                hs.append(h_cooperative(qa - qb, wa - wb, P0))
            fd = (hs[1] - hs[0]) / (2 * delta)
            analytic = h_rate(pa - pb, va - vb, aa - ab, dacc, P0.d_s)
            assert math.isclose(fd, analytic, rel_tol=1e-4, abs_tol=1e-6)
            checked += 1


class TestShieldParams:
    def test_invariants(self):
        with pytest.raises(ValueError):
            ShieldParams(d_s=0.0)
        with pytest.raises(ValueError):
            ShieldParams(gamma_coo=0.0)
        with pytest.raises(ValueError):
            ShieldParams(r_sense=0.0)  # must exceed d_s
        with pytest.raises(ValueError):
            ShieldParams(a_max_self=-1.0)
        with pytest.raises(ValueError):
            ShieldParams(slack_weight=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "name", ["d_s", "a_max_self", "a_max_other", "gamma_coo", "gamma_non", "r_sense", "slack_weight", "margin"]
    )
    def test_rejects_non_finite_fields(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            ShieldParams(**{name: value})

    def test_action_box_must_be_positive(self):
        with pytest.raises(ValueError):
            ShieldParams(a_max_self=0.0)
        assert ShieldParams(a_max_other=0.0).a_max_other == 0.0  # a peer may bring no braking of its own
