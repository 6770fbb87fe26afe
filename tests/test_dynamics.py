import copy
import math
import pickle
import struct

import numpy as np
import pytest

from marlshield.dynamics import (
    AgentState,
    ObstacleSpec,
    WorldConfig,
    _state_unchecked,
    face_clearances,
    step_agent,
)
from marlshield.patrol import default_world


def boundary_distance_oracle(p, half_extent, samples=20001):
    """Brute-force nearest boundary point: dense sampling of all four edges."""
    e = half_extent
    ts = np.linspace(-e, e, samples)
    best = (math.inf, None)
    for pts in (
        np.stack([np.full_like(ts, e), ts], axis=1),
        np.stack([np.full_like(ts, -e), ts], axis=1),
        np.stack([ts, np.full_like(ts, e)], axis=1),
        np.stack([ts, np.full_like(ts, -e)], axis=1),
    ):
        d = np.hypot(pts[:, 0] - p[0], pts[:, 1] - p[1])
        k = int(np.argmin(d))
        if d[k] < best[0]:
            best = (float(d[k]), pts[k])
    return best


class TestStepAgent:
    def test_uniform_motion(self):
        s = step_agent(AgentState([0, 0], [1, 0]), [0, 0], 0.1)
        assert np.allclose(s.position, [0.1, 0]) and np.allclose(s.velocity, [1, 0])

    def test_velocity_first_update(self):
        # hand evaluation: v' = 0 + 1*0.1, p' = 0 + v'*0.1
        s = step_agent(AgentState([0, 0], [0, 0]), [1, 0], 0.1)
        assert np.allclose(s.velocity, [0.1, 0])
        assert np.allclose(s.position, [0.01, 0])

    @pytest.mark.parametrize("dt", [0.01, 0.1, 1.0])
    def test_rest_is_fixed_point(self, dt):
        s = step_agent(AgentState([0.3, -0.2], [0, 0]), [0, 0], dt)
        assert np.array_equal(s.position, [0.3, -0.2])
        assert np.array_equal(s.velocity, [0, 0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            step_agent(AgentState([0, 0], [0, 0]), [np.nan, 0], 0.1)
        with pytest.raises(ValueError):
            AgentState([np.inf, 0], [0, 0])
        with pytest.raises(ValueError):
            step_agent(AgentState([0, 0], [0, 0]), [0, 0], 0.0)

    def test_zero_accel_invariant(self):
        s = AgentState([0.1, 0.2], [0.4, -0.3])
        n = 50
        dt = 0.1
        for _ in range(n):
            s = step_agent(s, [0, 0], dt)
        assert math.isclose(math.hypot(s.vx, s.vy), math.hypot(0.4, -0.3), rel_tol=0, abs_tol=1e-12)
        assert np.allclose(s.position, [0.1 + 0.4 * n * dt, 0.2 - 0.3 * n * dt], atol=1e-12)

    def test_deterministic_trajectories(self):
        rng = np.random.default_rng(7)
        accels = rng.uniform(-1, 1, size=(40, 2))
        def roll():
            s = AgentState([0, 0], [0, 0])
            out = []
            for a in accels:
                s = step_agent(s, a, 0.1)
                out.append((s.position.tobytes(), s.velocity.tobytes()))
            return out
        assert roll() == roll()

    def test_clamp_soundness(self):
        rng = np.random.default_rng(11)
        s = AgentState([0, 0], [0, 0])
        for _ in range(200):
            s = step_agent(s, rng.uniform(-1, 1, 2), 0.5, v_max=1.0)
            assert np.all(np.abs(s.velocity) <= 1.0 + 1e-15)


class TestStepAgentClampBytes:
    """`step_agent`'s clamp gives the bytes (and type) of min(max(v, -v_max), v_max) on every input."""

    ONE_UP, ONE_DOWN = math.nextafter(1.0, math.inf), math.nextafter(-1.0, -math.inf)

    @staticmethod
    def fields(s):
        return [(type(v), struct.pack("<d", v)) for v in (s.px, s.py, s.vx, s.vy)]

    @pytest.mark.parametrize(
        "vx, vy, ax, ay, dt, v_max",
        [
            (0.5, -0.5, 1.0, -1.0, 0.5, 1.0),  # lands exactly on +v_max and -v_max
            (ONE_UP, ONE_DOWN, 0.0, 0.0, 0.1, 1.0),  # one ulp beyond each limit
            (math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0), 0.0, 0.0, 0.1, 1.0),  # one ulp inside
            (0.0, 0.0, 1e6, -1e300, 0.5, 1.0),  # far beyond
            (-0.0, 0.0, -0.0, -0.0, 0.1, 1.0),  # -0.0 stays -0.0, 0.0 + -0.0 is 0.0
            (0.0, -0.0, 0.0, -0.0, 0.1, 0.0),  # a zero limit
            (0.7, -0.7, 1.0, -1.0, 0.5, 1),  # an int limit is returned as the int
            (math.nan, math.inf, 0.0, 0.0, 0.1, 1.0),  # NaN passes through, inf clamps
            (-math.inf, math.nan, 0.0, 0.0, 0.1, 2.5),
        ],
    )
    def test_matches_min_of_max_byte_for_byte(self, vx, vy, ax, ay, dt, v_max):
        state = _state_unchecked(0.25, -0.75, vx, vy)
        cx = min(max(vx + ax * dt, -v_max), v_max)
        cy = min(max(vy + ay * dt, -v_max), v_max)
        expected = _state_unchecked(0.25 + cx * dt, -0.75 + cy * dt, cx, cy)
        assert self.fields(step_agent(state, [ax, ay], dt, v_max)) == self.fields(expected)

    def test_bad_inputs_keep_their_messages(self):
        s = AgentState([0, 0], [0, 0])
        for accel in ([np.nan, 0.0], [0.0, np.inf], np.array([-np.inf, 0.0]), (0.0, math.nan)):
            with pytest.raises(ValueError) as err:
                step_agent(s, accel, 0.1)
            assert str(err.value) == f"accel must be a finite 2-vector, got {accel!r}"
        for dt in (0.0, -0.1, math.nan, math.inf, "0.1", None):
            with pytest.raises(ValueError) as err:
                step_agent(s, [0.0, 0.0], dt)
            assert str(err.value) == f"dt must be a positive finite number, got {dt!r}"


def wall_clearance(state, world):
    """The nearest face of `face_clearances`: its point as an array, and its distance."""
    _, point, dist = min(face_clearances(state.position, world.wall_half_extent), key=lambda f: f[2])
    return np.array(point), dist


class TestWallClearance:
    def world(self, e=1.0):
        return WorldConfig(wall_half_extent=e)

    def test_center_ties_to_plus_x(self):
        point, dist = wall_clearance(AgentState([0, 0], [0, 0]), self.world())
        assert dist == 1.0
        assert np.allclose(point, [1.0, 0.0])

    def test_near_face_matches_oracle(self):
        point, dist = wall_clearance(AgentState([0.9, 0], [0, 0]), self.world())
        od, op = boundary_distance_oracle((0.9, 0.0), 1.0)
        assert math.isclose(dist, od, abs_tol=1e-4)
        assert math.isclose(dist, 0.1, abs_tol=1e-12)
        assert np.allclose(point, [1.0, 0.0], atol=1e-4)
        assert np.allclose(point, op, atol=1e-3)

    def test_corner_tie_order(self):
        point, dist = wall_clearance(AgentState([0.9, 0.9], [0, 0]), self.world())
        od, _ = boundary_distance_oracle((0.9, 0.9), 1.0)
        assert math.isclose(dist, od, abs_tol=1e-4)
        assert np.allclose(point, [1.0, 0.9])  # +x face wins the tie

    def test_outside_is_diagnostic_error(self):
        with pytest.raises(ValueError):
            wall_clearance(AgentState([1.5, 0], [0, 0]), self.world())

    def test_random_positions_match_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = rng.uniform(-0.99, 0.99, 2)
            _, dist = wall_clearance(AgentState(p, [0, 0]), self.world())
            od, _ = boundary_distance_oracle(p, 1.0)
            assert math.isclose(dist, od, abs_tol=1e-4)

    def test_face_clearances_order(self):
        faces = face_clearances([0.2, -0.3], 1.0)
        assert [f[0] for f in faces] == ["+x", "-x", "+y", "-y"]
        assert [round(f[2], 12) for f in faces] == [0.8, 1.2, 1.3, 0.7]


class TestWorldConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorldConfig(wall_half_extent=0.0)
        with pytest.raises(ValueError):
            WorldConfig(dt=0.0)
        with pytest.raises(ValueError):
            WorldConfig(obstacles=(ObstacleSpec([2.0, 0.0]),))
        with pytest.raises(ValueError):
            WorldConfig(checkin_points=([1.5, 0.0],))

    def test_checkin_points_are_read_only(self):
        source = np.array([0.5, -0.5])
        world = WorldConfig(checkin_points=(source, [0.1, 0.2]))
        source[0] = 0.9
        for c in world.checkin_points:
            assert not c.flags.writeable
            with pytest.raises(ValueError):
                c[0] = 0.0
            with pytest.raises(ValueError):
                c += 1.0
        assert [c.tolist() for c in world.checkin_points] == [[0.5, -0.5], [0.1, 0.2]]

    def test_copies_keep_checkin_points_read_only(self):
        # a pickle round trip or a copy rebuilds the world through its constructor
        world = default_world()
        for copied in (pickle.loads(pickle.dumps(world)), copy.deepcopy(world), copy.copy(world)):
            assert type(copied) is WorldConfig and copied is not world
            assert [c.tolist() for c in copied.checkin_points] == [c.tolist() for c in world.checkin_points]
            fields = [(o.px, o.py, o.radius) for o in world.obstacles]
            assert [(o.px, o.py, o.radius) for o in copied.obstacles] == fields
            assert (copied.wall_half_extent, copied.dt, copied.v_max, copied.a_max) == (
                world.wall_half_extent, world.dt, world.v_max, world.a_max
            )
            for c in copied.checkin_points:
                assert not c.flags.writeable
                with pytest.raises(ValueError):
                    c[0] = 0.0

    def test_checkin_inside_obstacle_rejected(self):
        with pytest.raises(ValueError):
            WorldConfig(
                obstacles=(ObstacleSpec([0.0, 0.0], radius=0.2),),
                checkin_points=([0.1, 0.0],),
            )


class TestFloatRecords:
    def test_agent_state_is_read_only(self):
        s = AgentState([0.1, -0.2], [0.3, 0.4])
        for name in ("px", "py", "vx", "vy", "position", "velocity", "other"):
            with pytest.raises(AttributeError):
                setattr(s, name, 1.0)
        s.position[:] = (9.0, 9.0)
        s.velocity[0] = 9.0
        assert (s.px, s.py, s.vx, s.vy) == (0.1, -0.2, 0.3, 0.4)
        assert s.position.tobytes() == np.array([0.1, -0.2]).tobytes()
        assert s.position is not s.position

    def test_obstacle_is_read_only(self):
        source = np.array([0.3, 0.25])
        o = ObstacleSpec(source, radius=0.1)
        source[0] = 9.0
        for name in ("px", "py", "radius", "position"):
            with pytest.raises(AttributeError):
                setattr(o, name, 1.0)
        o.position[:] = (9.0, 9.0)
        assert (o.px, o.py, o.radius) == (0.3, 0.25, 0.1)
        assert o.position.tobytes() == np.array([0.3, 0.25]).tobytes()

    def test_fields_are_floats_as_the_arrays_were(self):
        s = AgentState([1, 2], np.array([3, 4], dtype=np.int64))
        assert all(type(v) is float for v in (s.px, s.py, s.vx, s.vy))
        assert s.position.dtype == s.velocity.dtype == np.float64
        assert math.hypot(s.vx, s.vy) == 5.0
        assert repr(s) == "AgentState(position=array([1., 2.]), velocity=array([3., 4.]))"
        assert type(ObstacleSpec((1, 0)).px) is float

    def test_records_survive_pickle_and_copies(self):
        world = WorldConfig(obstacles=(ObstacleSpec([0.3, 0.25], radius=0.1),))
        state = AgentState([0.1, -0.2], [0.3, 0.4])
        for copied in (pickle.loads(pickle.dumps((state, world))), copy.deepcopy((state, world))):
            s, w = copied
            assert (s.px, s.py, s.vx, s.vy) == (0.1, -0.2, 0.3, 0.4)
            (o,) = w.obstacles
            assert (o.px, o.py, o.radius) == (0.3, 0.25, 0.1)
            with pytest.raises(AttributeError):
                s.px = 1.0
        assert copy.copy(state).vy == 0.4

    @pytest.mark.parametrize(
        "bad", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, 0.0], [0.0], [0.0, 1.0, 2.0], [[0.0, 1.0]] * 2]
    )
    def test_constructors_still_reject_bad_vectors(self, bad):
        with pytest.raises(ValueError):
            AgentState(bad, [0.0, 0.0])
        with pytest.raises(ValueError):
            AgentState([0.0, 0.0], bad)
        with pytest.raises(ValueError):
            ObstacleSpec(bad)

    @pytest.mark.parametrize("radius", [-0.1, np.nan, np.inf])
    def test_obstacle_rejects_bad_radius(self, radius):
        with pytest.raises(ValueError):
            ObstacleSpec([0.0, 0.0], radius)
