import copy
import itertools
import math
import pickle
import re

import numpy as np
import pytest

from marlshield.barriers import ShieldParams
from marlshield.dynamics import AgentState, ObstacleSpec, WorldConfig
from marlshield.patrol import (
    PATROLMAN_I,
    PATROLMAN_II,
    CrowdedWorldError,
    EnvState,
    EpisodeLedger,
    PatrolEnv,
    default_world,
)
from marlshield.shield import ShieldReport, filter_action, local_rows

import env_oracle
import shield_oracle

PARAMS = ShieldParams()


def make_env(**kwargs):
    return PatrolEnv(default_world(), PARAMS, **kwargs)


def state_at(p0, p1, v0=(0, 0), v1=(0, 0), checkin_index=0):
    return EnvState(
        agents=(AgentState(p0, v0), AgentState(p1, v1)),
        checkin_index=checkin_index,
    )


class TestReset:
    def test_equal_seeds_identical(self):
        env = make_env()
        s1, o1 = env.reset(123)
        s2, o2 = env.reset(123)
        for a, b in zip(s1.agents, s2.agents):
            assert np.array_equal(a.position, b.position)
        for x, y in zip(o1, o2):
            assert np.array_equal(x, y)

    def test_clearances_and_bounds(self):
        env = make_env()
        world = env.world
        for seed in range(40):
            state, _ = env.reset(seed)
            for i, agent in enumerate(state.agents):
                assert np.all(np.abs(agent.position) <= 1.0)  # inside the 2x2 wall
                assert np.array_equal(agent.velocity, [0, 0])
                for o in world.obstacles:
                    assert math.hypot(*(agent.position - o.position)) > 0.125
                other = state.agents[1 - i]
                assert math.hypot(*(agent.position - other.position)) > 0.125
                assert 1.0 - np.max(np.abs(agent.position)) > 0.125

    def test_crowded_world_error(self):
        tiny = WorldConfig(wall_half_extent=0.13, checkin_points=([0.0, 0.0],))
        env = PatrolEnv(tiny, PARAMS)
        with pytest.raises(CrowdedWorldError):
            env.reset(0)

    @pytest.mark.parametrize("name", ["d_c", "reset_margin"])
    @pytest.mark.parametrize("value", [-0.07, -1e-12, math.nan, math.inf, -math.inf])
    def test_rejects_negative_or_non_finite_radii(self, name, value):
        # a negative margin spawns agents within d_s (a collision on the first
        # step); a NaN d_c silently disables every check-in
        with pytest.raises(ValueError, match=name):
            make_env(**{name: value})

    def test_zero_radii_are_allowed(self):
        env = make_env(d_c=0.0, reset_margin=0.0)
        for seed in range(20):
            state, _ = env.reset(seed)
            a, b = state.agents
            assert math.hypot(a.px - b.px, a.py - b.py) > PARAMS.d_s


class TestEnvStateRecord:
    FIELDS = ("agents", "checkin_index", "checkins_reached", "step_count", "min_clearance")

    def stepped(self):
        env = make_env()
        state, _ = env.reset(4)
        for _ in range(3):
            state = env.step(state, np.array([[0.5, -0.25], [-1.0, 1.0]]))[0]
        return state

    def fields(self, state):
        return tuple(getattr(state, name) for name in self.FIELDS)

    def test_fields_are_read_only(self):
        state = self.stepped()
        for name in (*self.FIELDS, "other"):
            with pytest.raises(AttributeError):
                setattr(state, name, 1)
        assert not hasattr(state, "__dict__")
        assert state.step_count == 3 and len(state.min_clearance) == 2

    def test_keyword_and_positional_construction(self):
        agents = (AgentState([0.1, 0.2], [0, 0]), AgentState([-0.3, 0.4], [0, 0]))
        bare = EnvState(agents)
        assert self.fields(bare) == (agents, 0, 0, 0, ())
        assert self.fields(EnvState(agents=agents)) == self.fields(bare)
        full = (agents, 2, 7, 11, (0.5, math.inf))
        assert self.fields(EnvState(*full)) == full
        assert self.fields(EnvState(**dict(zip(self.FIELDS, full)))) == full

    def test_stepped_state_survives_pickle_and_copies(self):
        state = self.stepped()
        copies = (pickle.loads(pickle.dumps(state)), copy.copy(state), copy.deepcopy(state))
        for c in copies:
            assert type(c) is EnvState and c is not state
            assert self.fields(c)[1:] == self.fields(state)[1:]
            for a, b in zip(c.agents, state.agents):
                assert (a.px, a.py, a.vx, a.vy) == (b.px, b.py, b.vx, b.vy)
            with pytest.raises(AttributeError):
                c.step_count = 0


class TestObservations:
    def test_layout_and_dims(self):
        env = make_env()
        state = state_at([0.1, 0.2], [-0.3, 0.4], v0=(0.5, -0.5))
        obs = env.observe(state)
        assert all(o.shape == (env.obs_dim,) for o in obs)
        assert env.obs_dim == 8 + 2 * len(env.world.obstacles)
        np.testing.assert_allclose(obs[0][:2], [0.1, 0.2])
        np.testing.assert_allclose(obs[0][2:4], [0.5, -0.5])
        np.testing.assert_allclose(obs[0][4:6], [-0.4, 0.2])  # relative peer
        # patrolman I carries a zeroed target slot; II carries the live target
        np.testing.assert_allclose(obs[0][-2:], [0, 0])
        target = env.world.checkin_points[0]
        np.testing.assert_allclose(obs[1][-2:], target - np.array([-0.3, 0.4]))


class TestRewards:
    def test_four_clear_entities_scores_200(self):
        env = make_env()
        state = state_at([0.0, 0.0], [0.5, 0.0])
        # agent I at the center sees the peer and all three obstacles, none colliding
        new_state, _, rewards, _ = env.step(state, np.zeros((2, 2)))
        assert rewards[PATROLMAN_I] == pytest.approx(4 * 50.0)

    def test_contact_contributes_minus_50(self):
        env = make_env()
        near = state_at([0.0, 0.0], [0.07, 0.0])
        _, _, r_near, _ = env.step(near, np.zeros((2, 2)))
        clear = state_at([0.0, 0.0], [0.5, 0.0])
        _, _, r_clear, _ = env.step(clear, np.zeros((2, 2)))
        assert r_near[PATROLMAN_I] == r_clear[PATROLMAN_I] - 100.0  # +50 flipped to -50

    def test_checkin_bonus_counts_per_entity(self):
        world = WorldConfig(
            wall_half_extent=1.0,
            obstacles=(ObstacleSpec([0.3, 0.0]), ObstacleSpec([0.0, 0.3])),
            checkin_points=([0.0, 0.0], [0.5, 0.5]),
        )
        env = PatrolEnv(world, ShieldParams(r_sense=1.0), d_c=0.05)
        state = state_at([-0.5, 0.0], [0.04, 0.0])
        _, _, rewards, _ = env.step(state, np.zeros((2, 2)))
        # three entities in range of II (peer + 2 obstacles), none colliding,
        # target within the critical distance: 3 x 100
        assert rewards[PATROLMAN_II] == pytest.approx(300.0)

    def test_reward_decomposes_per_entity(self):
        env = make_env()
        rng = np.random.default_rng(8)
        for _ in range(50):
            state, _ = env.reset(int(rng.integers(1 << 31)))
            new_state, _, rewards, _ = env.step(state, np.zeros((2, 2)))
            target = env.world.checkin_points[state.checkin_index]
            assert new_state.min_clearance == tuple(
                env.min_entity_distance(new_state, i) for i in range(2)
            )
            for i in range(2):
                expected = 0.0
                at_target = (
                    i == PATROLMAN_II
                    and math.hypot(*(new_state.agents[i].position - target)) <= env.d_c
                )
                for d in env.entity_distances(new_state, i):
                    if d <= PARAMS.d_s:
                        expected += -50.0
                    elif at_target:
                        expected += 100.0
                    else:
                        expected += 50.0
                assert rewards[i] == pytest.approx(expected)

    def test_entity_set_matches_shield_neighborhood(self):
        env = make_env()
        rng = np.random.default_rng(9)
        for _ in range(50):
            p0 = rng.uniform(-0.9, 0.9, 2)
            p1 = rng.uniform(-0.9, 0.9, 2)
            state = state_at(p0, p1)
            agents = list(enumerate(state.agents))
            for i in range(2):
                _, _, built, _, _ = local_rows(i, state.agents[i], agents, env.world.obstacles, env.world, PARAMS)
                near_agents, near_obs, _ = shield_oracle.neighborhood(
                    i, agents, env.world.obstacles, env.world, PARAMS.r_sense
                )
                assert (built["cooperative"], built["non-cooperative"]) == (len(near_agents), len(near_obs))
                assert len(env.entity_distances(state, i)) == len(near_agents) + len(near_obs)


class TestCheckins:
    def test_advance_and_wrap(self):
        env = make_env()
        state = state_at([-0.9, -0.9], [0.7, 0.7])  # II on the first check-in
        new_state, _, _, done = env.step(state, np.zeros((2, 2)))
        assert new_state.checkin_index == 1
        assert new_state.checkins_reached == 1
        assert not done
        wrapped = state_at([-0.9, -0.9], [0.0, 0.0], checkin_index=4)
        new_state, _, _, _ = env.step(wrapped, np.zeros((2, 2)))
        assert new_state.checkin_index == 0  # wraps after the fifth point

    def test_done_after_all_five(self):
        env = make_env()
        state = EnvState(
            agents=(AgentState([-0.9, -0.9], [0, 0]), AgentState([0.0, 0.0], [0, 0])),
            checkin_index=4,
            checkins_reached=4,
        )
        new_state, _, _, done = env.step(state, np.zeros((2, 2)))
        assert new_state.checkins_reached == 5
        assert done

    def test_done_at_episode_length(self):
        env = make_env(episode_len=3)
        state, _ = env.reset(5)
        done = False
        steps = 0
        while not done:
            state, _, _, done = env.step(state, np.zeros((2, 2)))
            steps += 1
            assert steps <= 3
        assert steps == 3

    def test_index_monotone_within_episode(self):
        env = make_env(episode_len=50)
        state, _ = env.reset(11)
        rng = np.random.default_rng(12)
        seen = state.checkins_reached
        done = False
        while not done:
            state, _, _, done = env.step(state, rng.uniform(-1, 1, (2, 2)))
            assert state.checkins_reached >= seen
            seen = state.checkins_reached


COMPONENTS = {"a0x": (0, 0), "a0y": (0, 1), "a1x": (1, 0), "a1y": (1, 1)}


class TestStepValidation:
    """The action checks of `PatrolEnv.step`, component by component; the box edge has 1e-9 of slack."""

    A_MAX = default_world().a_max

    @staticmethod
    def step_with(component, value):
        env = make_env()
        state, _ = env.reset(1)
        actions = np.zeros((2, 2))
        actions[component] = value
        return env.step(state, actions)

    def test_rejects_out_of_box_actions(self):
        env = make_env()
        state, _ = env.reset(1)
        with pytest.raises(ValueError):
            env.step(state, np.array([[2.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            env.step(state, np.array([[np.nan, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("component", COMPONENTS.values(), ids=COMPONENTS)
    def test_non_finite_component_is_rejected(self, component, value):
        with pytest.raises(ValueError, match="^actions must be finite$"):
            self.step_with(component, value)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["+", "-"])
    @pytest.mark.parametrize("component", COMPONENTS.values(), ids=COMPONENTS)
    def test_component_beyond_the_box_is_rejected(self, component, sign):
        with pytest.raises(ValueError, match="^" + re.escape(f"action components must lie within +-{self.A_MAX}, got ")):
            self.step_with(component, sign * (self.A_MAX + 2e-9))

    @pytest.mark.parametrize("value", [A_MAX, -A_MAX, A_MAX + 1e-9, -(A_MAX + 1e-9)],
                             ids=["+a_max", "-a_max", "+a_max+1e-9", "-a_max-1e-9"])
    @pytest.mark.parametrize("component", COMPONENTS.values(), ids=COMPONENTS)
    def test_component_on_the_box_edge_is_accepted(self, component, value):
        state, _, _, _ = self.step_with(component, value)
        agent, axis = state.agents[component[0]], component[1]
        assert (agent.vx, agent.vy)[axis] == value * default_world().dt

    @pytest.mark.parametrize("convert, values", [
        (list, [[1.0, -0.5], [0.25, -1.0]]),
        (lambda v: np.array(v, dtype=np.float32), [[1.0, -0.5], [0.25, -1.0]]),
        (lambda v: np.array(v, dtype=np.int64), [[1, 0], [0, -1]]),
    ], ids=["list", "float32", "int"])
    def test_array_likes_are_accepted(self, convert, values):
        env = make_env()
        state, _ = env.reset(1)
        got = env.step(state, convert(values))
        reference = env.step(state, np.array(values, dtype=float))
        assert got[1].tobytes() == reference[1].tobytes()
        assert [(a.vx, a.vy) for a in got[0].agents] == [(a.vx, a.vy) for a in reference[0].agents]

    @pytest.mark.parametrize("shape", [(4,), (2, 3)], ids=str)
    def test_wrong_shapes_are_rejected(self, shape):
        env = make_env()
        state, _ = env.reset(1)
        with pytest.raises(ValueError):
            env.step(state, np.zeros(shape))


def ledger_step(clearance=(1.0, 1.0), rewards=(0.0, 0.0), statuses=None, checkins=0):
    """One recorded step: the stepped state's clearances, its rewards, the filter reports."""
    state = EnvState(agents=(), checkins_reached=checkins, min_clearance=clearance)
    reports = None
    if statuses is not None:
        reports = [ShieldReport(i, None, None, status=s) for i, s in enumerate(statuses)]
    return state, np.array(rewards), reports


LEDGER_CASES = {
    "empty_episode": (
        [],
        dict(reward_I=0.0, reward_II=0.0, collisions_step=0, collisions_episode=0,
             min_dist=math.inf, checkins=0, corrections=0, slack_events=0),
    ),
    "threshold_is_inclusive": (
        [ledger_step((1.0, 0.075))],
        dict(collisions_step=1, collisions_episode=1, min_dist=0.075),
    ),
    "just_above_threshold": (
        [ledger_step((0.0751, 1.0))],
        dict(collisions_step=0, collisions_episode=0, min_dist=0.0751),
    ),
    "both_agents_graze_once": (
        [ledger_step((0.074, 0.074)), ledger_step()],
        dict(collisions_step=1, collisions_episode=1, min_dist=0.074),
    ),
    "totals_interventions_checkins": (
        [
            ledger_step(rewards=(50.0, 100.0), statuses=("passthrough", "corrected")),
            ledger_step(rewards=(-50.0, 50.0), statuses=("fallback", "relaxed"), checkins=2),
            ledger_step(statuses=("passthrough", "passthrough"), checkins=1),
        ],
        dict(reward_I=0.0, reward_II=150.0, corrections=3, slack_events=1, checkins=2),
    ),
    "unshielded_steps_never_intervene": (
        [ledger_step(rewards=(50.0, 50.0)), ledger_step(checkins=1)],
        dict(reward_I=50.0, reward_II=50.0, corrections=0, slack_events=0, checkins=1),
    ),
}


class TestEpisodeLedger:
    @pytest.mark.parametrize("steps, expected", LEDGER_CASES.values(), ids=LEDGER_CASES.keys())
    def test_metrics(self, steps, expected):
        ledger = EpisodeLedger(d_s=0.075)
        for state, rewards, reports in steps:
            ledger.record(state, rewards, reports)
        metrics = ledger.metrics()
        assert {k: metrics[k] for k in expected} == expected


def oracle_replay(shielded, world, seeds):
    """Step the package env and the array reference side by side from each reset.

    Patrolman I holds a random corner action for 5-14 steps (so speeds clamp
    at v_max), patrolman II steers for its current check-in point. Yields
    (package step, reference step) per step; the reference runs on its own
    states, so a difference compounds instead of resetting.
    """
    env = PatrolEnv(world, PARAMS)
    rng = np.random.default_rng(5)
    for seed in seeds:
        state, obs = env.reset(seed)
        ref = env_oracle.from_package(state)
        assert obs.tobytes() == np.stack(env_oracle.observe(env, ref)).tobytes()
        hold, corner = 0, None
        done = False
        while not done:
            if hold == 0:
                hold, corner = int(rng.integers(5, 15)), rng.choice([-1.0, 1.0], 2)
            hold -= 1
            target = env.world.checkin_points[state.checkin_index]
            steer = 4.0 * (target - state.agents[1].position) - 3.0 * state.agents[1].velocity
            nominal = np.clip(np.stack([corner, steer]), -1.0, 1.0)
            actions = nominal
            if shielded:
                actions = np.stack([
                    filter_action(i, nominal[i], state.agents[i], list(enumerate(state.agents)),
                                  env.world.obstacles, env.world, env.params)[0]
                    for i in range(2)
                ])
            out = env.step(state, actions)
            ref_out = env_oracle.step(env, ref, actions)
            yield out, ref_out
            state, ref, done = out[0], ref_out[0], out[3]


def oracle_worlds():
    """The stock arena, and one with room to reach top speed under the shield."""
    stock = default_world()
    wide = WorldConfig(wall_half_extent=4.0, obstacles=stock.obstacles, checkin_points=stock.checkin_points)
    return stock, wide


@pytest.mark.parametrize("shielded", [False, True], ids=["unshielded", "shielded"])
def test_ledger_float_totals_match_numpy_accumulation(shielded):
    """Over the oracle episodes, float reward totals equal, byte for byte, a float64 array summed with numpy."""
    episodes = 0
    for world in oracle_worlds():
        ledger, ref = EpisodeLedger(PARAMS.d_s), np.zeros(2)
        for (state, _, rewards, done), _ in oracle_replay(shielded, world, range(12)):
            ledger.record(state, rewards)
            ref += rewards
            if done:
                metrics = ledger.metrics()
                totals = (metrics["reward_I"], metrics["reward_II"])
                assert all(type(t) is float for t in totals)
                assert np.array(totals).tobytes() == ref.tobytes()
                ledger, ref = EpisodeLedger(PARAMS.d_s), np.zeros(2)
                episodes += 1
    assert episodes == 24


class TestEnvOracle:
    @pytest.mark.parametrize("shielded", [False, True], ids=["unshielded", "shielded"])
    def test_float_step_matches_array_reference(self, shielded):
        # the stock arena, and one with room to reach top speed under the shield
        stock = default_world()
        wide = WorldConfig(
            wall_half_extent=4.0, obstacles=stock.obstacles, checkin_points=stock.checkin_points
        )
        replays = [oracle_replay(shielded, world, range(12)) for world in (stock, wide)]
        steps = clamps = advances = 0
        for out, ref_out in itertools.chain(*replays):
            (state, obs, rewards, done), (ref, ref_obs, ref_rewards, ref_min, ref_done) = out, ref_out
            for a, b in zip(state.agents, ref.agents):
                assert a.position.tobytes() == b.position.tobytes()
                assert a.velocity.tobytes() == b.velocity.tobytes()
                clamps += sum(abs(v) == stock.v_max for v in (a.vx, a.vy))
            assert (state.checkin_index, state.checkins_reached, state.step_count) == (
                ref.checkin_index, ref.checkins_reached, ref.step_count
            )
            assert obs.dtype == np.float64 and obs.shape == (2, len(ref_obs[0]))
            assert obs.tobytes() == np.stack(ref_obs).tobytes()
            assert rewards.dtype == np.float64 and rewards.tobytes() == ref_rewards.tobytes()
            assert state.min_clearance == ref_min
            assert done == ref_done
            steps += 1
            if done:
                advances += state.checkins_reached
        assert steps >= 2000 and clamps >= 500 and advances >= 10, (steps, clamps, advances)
