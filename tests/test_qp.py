import itertools
import math

import numpy as np
import pytest

import marlshield.qp
from marlshield.barriers import ShieldParams, h_cooperative, h_noncooperative
from marlshield.dynamics import AgentState, ObstacleSpec, WorldConfig, face_clearances, step_agent
from marlshield.maddpg import TrainerConfig
from marlshield.patrol import PatrolEnv, default_world
from marlshield.qp import (
    STATUS_OPTIMAL,
    STATUS_RELAXED,
    QpProblem,
    QpSolution,
    kkt_check,
    solve,
)
from marlshield.shield import filter_action

from qp_oracle import full_pair_scan, full_relaxed_scan, grid_project, grid_relaxed


def row(nx, ny, b):
    """The halfplane nx*ux + ny*uy <= b as the solver's (ax, ay, b) float triple."""
    return float(nx), float(ny), float(b)


def objective(problem, u):
    return 0.5 * float(np.sum((np.asarray(u) - problem.nominal) ** 2))


def random_problem(rng, max_rows=6, feasible_bias=True):
    m = int(rng.integers(0, max_rows + 1))
    rows = []
    anchor = rng.uniform(-0.9, 0.9, 2)
    for _ in range(m):
        n = rng.normal(size=2)
        while np.hypot(*n) < 1e-3:
            n = rng.normal(size=2)
        if feasible_bias:
            b = float(n @ anchor) + float(rng.uniform(0.0, 1.0))
        else:
            b = float(rng.uniform(-1.5, 1.5))
        rows.append(row(n[0], n[1], b))
    return QpProblem(nominal=rng.uniform(-2, 2, 2), constraints=tuple(rows), box=1.0)


class TestSolveExamples:
    def test_unconstrained_passthrough_is_bit_exact(self):
        nominal = np.array([0.3, -0.2])
        sol = solve(QpProblem(nominal=nominal))
        assert sol.status == STATUS_OPTIMAL
        assert np.array_equal(sol.u_safe, nominal)
        assert sol.slack == 0.0

    def test_single_constraint_projection(self):
        sol = solve(QpProblem(nominal=np.array([1.0, 0.0]), constraints=(row(1, 0, 0.5),)))
        assert np.allclose(sol.u_safe, [0.5, 0.0], atol=1e-12)
        assert sol.status == STATUS_OPTIMAL

    def test_box_clipping(self):
        sol = solve(QpProblem(nominal=np.array([2.0, 2.0])))
        assert np.allclose(sol.u_safe, [1.0, 1.0], atol=0)
        assert sol.status == STATUS_OPTIMAL

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            QpProblem(nominal=np.array([np.nan, 0.0]))
        with pytest.raises(ValueError):
            QpProblem(np.zeros(2), (row(np.inf, 0.0, 1.0),))


class TestKktCheck:
    def test_optimal_solutions_certify(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            p = random_problem(rng)
            sol = solve(p)
            assert sol.status in (STATUS_OPTIMAL, STATUS_RELAXED)
            assert sol.kkt_residual <= 1e-9

    def test_unconstrained_residual_is_zero(self):
        p = QpProblem(nominal=np.array([0.2, 0.2]))
        sol = solve(p)
        assert kkt_check(p, sol) == 0.0

    def test_perturbation_along_active_normal_detected(self):
        p = QpProblem(nominal=np.array([1.0, 0.0]), constraints=(row(1, 0, 0.5),))
        sol = solve(p)
        assert sol.kkt_residual <= 1e-9
        bad = QpSolution(
            u_safe=sol.u_safe + np.array([1e-3, 0.0]),
            slack=0.0,
            active_set=sol.active_set,
            problem=p,
            status=sol.status,
        )
        assert kkt_check(p, bad) > 1e-6

    def test_nearly_parallel_vertex_certifies_and_displacement_is_flagged(self, common_vertex):
        # seed 0 #16088: rows 0 and 1, nearly antiparallel, certify the vertex
        # with multipliers ~6.4e3 and ~2.5e4. Normalized by 1 + max|lam|, the
        # vertex reads <= 1e-9, and a 1e-7 step off it still reads > 1e-9.
        p = common_vertex[0][16088]
        sol = solve(p)
        assert sol.status == STATUS_OPTIMAL and sol.active_set == (0, 1)
        assert sin_between(p, sol.active_set) < 1e-3
        assert sol.kkt_residual <= 1e-9
        for step in ((1e-7, 0.0), (-1e-7, 0.0), (0.0, 1e-7), (0.0, -1e-7)):
            moved = QpSolution(sol.u_safe + np.array(step), 0.0, sol.active_set, p, sol.status)
            assert kkt_check(p, moved) > 1e-9, step


class TestProjectionProperties:
    def test_idempotence(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            p = random_problem(rng)
            sol = solve(p)
            if sol.status != STATUS_OPTIMAL:
                continue
            again = solve(
                QpProblem(nominal=sol.u_safe, constraints=p.constraints, box=p.box)
            )
            assert np.allclose(again.u_safe, sol.u_safe, atol=1e-9)

    def test_minimal_interference_bit_exact(self):
        rng = np.random.default_rng(23)
        hits = 0
        while hits < 500:
            p = random_problem(rng)
            u = p.nominal
            if np.max(np.abs(u)) > p.box:
                continue
            if any(ax * u[0] + ay * u[1] > b for ax, ay, b in p.constraints):
                continue
            sol = solve(p)
            assert sol.status == STATUS_OPTIMAL
            assert np.array_equal(sol.u_safe, u)
            hits += 1

    def test_objective_monotone_under_constraint_addition(self):
        rng = np.random.default_rng(24)
        for _ in range(150):
            p = random_problem(rng, max_rows=4)
            base = solve(p)
            if base.status != STATUS_OPTIMAL:
                continue
            extra = random_problem(rng, max_rows=1)
            if not extra.constraints:
                continue
            bigger = QpProblem(
                nominal=p.nominal, constraints=p.constraints + extra.constraints, box=p.box
            )
            after = solve(bigger)
            if after.status != STATUS_OPTIMAL:
                continue
            d0 = float(np.linalg.norm(base.u_safe - p.nominal))
            d1 = float(np.linalg.norm(after.u_safe - p.nominal))
            assert d1 >= d0 - 1e-9

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(25)
        compared = 0
        for _ in range(250):
            p = random_problem(rng, feasible_bias=bool(rng.integers(0, 2)))
            sol = solve(p)
            oracle = grid_project(p)
            if oracle is None:
                if sol.status == STATUS_OPTIMAL:
                    # thin feasible region the grid missed; certify directly
                    assert sol.kkt_residual <= 1e-9
                continue
            _, oracle_obj = oracle
            assert sol.status == STATUS_OPTIMAL
            assert objective(p, sol.u_safe) <= oracle_obj + 1e-6
            assert sol.kkt_residual <= 1e-9
            compared += 1
        assert compared > 100


class TestRelaxation:
    def infeasible_problem(self, gap=0.5):
        # two opposing halfplanes with no overlap inside the box
        return QpProblem(
            nominal=np.array([0.0, 0.0]),
            constraints=(row(1, 0, -gap), row(-1, 0, -gap)),
            box=1.0,
        )

    def test_infeasible_relaxes_with_positive_slack(self):
        sol = solve(self.infeasible_problem())
        assert sol.status == STATUS_RELAXED
        assert sol.slack > 0.0
        # candidates: the two violated rows alone, then their pair
        assert (sol.active_set, sol.iterations) == ((0, 1), 3)
        assert np.max(np.abs(sol.u_safe)) <= 1.0 + 1e-12
        assert sol.kkt_residual <= 1e-9

    def test_relaxed_matches_composite_oracle(self):
        rng = np.random.default_rng(26)
        for gap in (0.1, 0.4, 0.8):
            p = self.infeasible_problem(gap)
            sol = solve(p)
            _, oracle_obj = grid_relaxed(p)
            got = 0.5 * float(np.sum((sol.u_safe - p.nominal) ** 2)) + p.slack_weight * sol.slack**2
            assert got <= oracle_obj + 1e-6 * max(1.0, abs(oracle_obj))
        for _ in range(40):
            g = float(rng.uniform(0.05, 0.9))
            n = rng.normal(size=2)
            n /= np.hypot(*n)
            p = QpProblem(
                nominal=rng.uniform(-1, 1, 2),
                constraints=(
                    row(n[0], n[1], -g),
                    row(-n[0], -n[1], -g),
                ),
                box=1.0,
            )
            sol = solve(p)
            assert sol.status == STATUS_RELAXED
            _, oracle_obj = grid_relaxed(p)
            got = 0.5 * float(np.sum((sol.u_safe - p.nominal) ** 2)) + p.slack_weight * sol.slack**2
            assert got <= oracle_obj + 1e-6 * max(1.0, abs(oracle_obj))

    def test_zero_slack_weight_ignores_rows(self):
        p = QpProblem(
            nominal=np.array([0.4, 0.1]),
            constraints=(row(1, 0, -2.0),),
            box=1.0,
            slack_weight=0.0,
        )
        sol = solve(p)
        assert sol.status == STATUS_RELAXED
        assert np.array_equal(sol.u_safe, p.nominal)
        assert math.isclose(sol.slack, 2.4, abs_tol=1e-12)
        assert sol.active_set == () and sol.kkt_residual == 0.0
        # a nominal outside the box is clipped, and the box rows the clip binds are active
        for nominal, u, active in (
            ((1.5, 0.0), (1.0, 0.0), (1,)),
            ((1.5, -2.0), (1.0, -1.0), (1, 4)),
            ((-3.0, 0.5), (-1.0, 0.5), (2,)),
            ((-0.2, 1.25), (-0.2, 1.0), (3,)),
        ):
            p = QpProblem(np.array(nominal), (row(1, 0, -2.0),), 1.0, 0.0)
            sol = solve(p)
            assert sol.status == STATUS_RELAXED
            assert (tuple(sol.u_safe.tolist()), sol.active_set) == (u, active)
            assert sol.slack == u[0] + 2.0
            assert sol.kkt_residual <= 1e-9


def composite_objective(problem, sol):
    return objective(problem, sol.u_safe) + problem.slack_weight * sol.slack**2


def assert_matches_oracles(p, sol):
    """KKT certificate, plus the grid oracle of whichever phase applies."""
    assert sol.kkt_residual <= 1e-9
    oracle = grid_project(p)
    if oracle is not None:
        assert sol.status == STATUS_OPTIMAL
        assert objective(p, sol.u_safe) <= oracle[1] + 1e-6
    elif sol.status == STATUS_RELAXED:
        _, oracle_obj = grid_relaxed(p)
        assert composite_objective(p, sol) <= oracle_obj + 1e-6 * max(1.0, abs(oracle_obj))
    # optimal with no grid point: a region thinner than the grid, certified by KKT


def training_shaped_problems(rng, count):
    """8-row problems as the shield stacks them in the 2x2 training arena.

    1 peer and 3 obstacles (normal -dp, any direction), then 4 wall faces
    (axis-aligned normal scaled by the distance).
    """
    for _ in range(count):
        rows = [row(*rng.uniform(-2, 2, 2), float(rng.uniform(-0.5, 2.0))) for _ in range(4)]
        for nx, ny in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            d = float(rng.uniform(0.05, 2.0))
            rows.append(row(nx * d, ny * d, d * float(rng.uniform(-1.2, 2.0))))
        yield QpProblem(nominal=rng.uniform(-1, 1, 2), constraints=tuple(rows), box=1.0)


def face_bounds(p):
    """A `training_shaped_problems` problem with its 4 wall-face rows as `bounds`, as the shield hands them over."""
    return QpProblem(p.nominal, p.constraints[:4], p.box, p.slack_weight, p.constraints[4:])


def degenerate_problems(rng, count):
    """Fixed degenerate shapes, then `count` random ones of four kinds."""
    problems = [
        # duplicated and scaled copies of one violated row
        QpProblem(
            nominal=np.array([0.9, 0.4]),
            constraints=(row(1, 1, 0.5), row(1, 1, 0.5), row(3, 3, 1.5)),
        ),
        # rows parallel to a box edge with the bound on that edge
        QpProblem(nominal=np.array([1.5, 0.2]), constraints=(row(1, 0, 1.0), row(2, 0, 2.0))),
        QpProblem(nominal=np.array([1.5, -1.5]), constraints=(row(0, -1, 1.0), row(1, 0, 1.0))),
        # a line through a box corner that leaves only the corner
        QpProblem(nominal=np.array([0.0, 0.0]), constraints=(row(-1, -1, -2.0),)),
        # three rows and two box edges meet at the corner (1, 1)
        QpProblem(
            nominal=np.array([1.4, 1.3]),
            constraints=(row(1, 1, 2.0), row(1, 2, 3.0), row(2, 1, 3.0)),
        ),
        # three rows through one interior vertex
        QpProblem(
            nominal=np.array([0.8, 0.8]),
            constraints=(row(1, 0, 0.2), row(0, 1, 0.2), row(1, 1, 0.4)),
        ),
    ]
    for _ in range(count):
        kind = int(rng.integers(0, 4))
        if kind == 0:  # duplicated and scaled rows
            n, b = rng.normal(size=2), float(rng.uniform(-1.0, 1.0))
            rows = [row(*(s * n), s * b) for s in (1.0, 1.0, 2.0, 0.25)]
        elif kind == 1:  # box-parallel rows with bounds on or inside the edges
            rows = []
            for _ in range(3):
                n = np.zeros(2)
                n[int(rng.integers(0, 2))] = float(rng.choice([-1.0, 1.0]))
                rows.append(row(*n, float(rng.choice([1.0, 0.5, 0.0]))))
            rows.append(row(*rng.normal(size=2), float(rng.uniform(0.0, 1.0))))
        elif kind == 2:  # lines through box corners
            rows = []
            for _ in range(3):
                n = rng.normal(size=2)
                rows.append(row(*n, float(n @ rng.choice([-1.0, 1.0], 2))))
        else:  # >= 3 rows through one vertex
            v = rng.uniform(-0.9, 0.9, 2)
            rows = []
            for _ in range(int(rng.integers(3, 6))):
                n = rng.normal(size=2)
                rows.append(row(*n, float(n @ v)))
        problems.append(
            QpProblem(nominal=rng.uniform(-1.5, 1.5, 2), constraints=tuple(rows), box=1.0)
        )
    return problems


class TestStructuredProblems:
    def test_training_shaped_rows(self):
        statuses = set()
        for p in training_shaped_problems(np.random.default_rng(31), 150):
            sol = solve(p)
            assert len(p.constraints) == 8
            assert_matches_oracles(p, sol)
            statuses.add(sol.status)
        assert statuses == {STATUS_OPTIMAL, STATUS_RELAXED}

    def test_degenerate_rows(self):
        for p in degenerate_problems(np.random.default_rng(32), 150):
            assert_matches_oracles(p, solve(p))

    def test_three_or_more_conflicting_rows_relax(self):
        # k halfplanes whose outward normals surround the origin exclude the
        # whole box, so every row conflicts with the others
        rng = np.random.default_rng(33)
        for _ in range(60):
            k = int(rng.integers(3, 6))
            spread = 2 * np.pi * np.arange(k) / k + rng.normal(0, 0.2, k)
            angles = rng.uniform(0, 2 * np.pi) + spread
            rows = [row(math.cos(a), math.sin(a), -float(rng.uniform(0.05, 0.9))) for a in angles]
            p = QpProblem(
                nominal=rng.uniform(-1, 1, 2), constraints=tuple(rows), box=1.0, slack_weight=1e6
            )
            sol = solve(p)
            assert sol.status == STATUS_RELAXED
            assert sol.slack > 0.0
            assert_matches_oracles(p, sol)


def common_vertex_problems(seed, count=20_000):
    """3-4 random rows through one common vertex, the nominal uniform in [-1.5, 1.5]^2."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        v = rng.uniform(-0.9, 0.9, 2)
        rows = []
        for _ in range(int(rng.integers(3, 5))):
            n = rng.normal(size=2)
            rows.append(row(n[0], n[1], float(n @ v)))
        yield QpProblem(nominal=rng.uniform(-1.5, 1.5, 2), constraints=tuple(rows), box=1.0)


def sin_between(problem, pair):
    (a1x, a1y, _), (a2x, a2y, _) = (problem.rows[k] for k in pair)
    return abs(a1x * a2y - a1y * a2x) / (math.hypot(a1x, a1y) * math.hypot(a2x, a2y))


@pytest.fixture(scope="module")
def common_vertex():
    """`common_vertex_problems` of seeds 0 and 1, indexed [seed][k]."""
    return [list(common_vertex_problems(seed)) for seed in (0, 1)]


class TestCommonVertexCertificates:
    def test_common_vertices_certify(self, common_vertex):
        # Where 3+ rows meet at the projection, the pair the scan accepted can
        # be nearly parallel, with large multipliers; the certificate
        # normalizes by them, so every vertex must read <= 1e-9.
        failures = []
        for seed, problems in enumerate(common_vertex):
            for k, p in enumerate(problems):
                sol = solve(p)
                if not sol.kkt_residual <= 1e-9:
                    failures.append((seed, k, sol.kkt_residual, sol.active_set))
        assert failures == []


@pytest.fixture(scope="module")
def stress(recorded_calls):
    """Stress problems as (optimal, relaxed degenerate, relaxed training-shaped).

    The degenerate ones come from `degenerate_problems` of seeds 0 and 1; the
    training-shaped ones from `training_shaped_problems` and, relaxed only,
    from a recorded training run.
    """
    optimal, degenerate, training = [], [], []
    for seed in (0, 1):
        for p in degenerate_problems(np.random.default_rng(seed), 20_000):
            (degenerate if solve(p).status == STATUS_RELAXED else optimal).append(p)
    for p in training_shaped_problems(np.random.default_rng(36), 400):
        (training if solve(p).status == STATUS_RELAXED else optimal).append(p)
    training += relaxed_training_problems(recorded_calls["training"])
    assert len(degenerate) > 3000 and len(training) > 200 and len(optimal) > 30_000
    return optimal, degenerate, training


class TestLargeSlackWeightCertificates:
    def test_relaxed_degenerate_rows_certify_at_large_slack_weights(self, stress):
        # the relaxed phase returns the candidate its scan accepted, whose
        # active rows hold to the last bits at any slack weight
        _, degenerate, training = stress
        cases = [(10.0**e, degenerate) for e in range(3, 13)] + [(w, training) for w in (1e9, 1e12)]
        failures = []
        for w, family in cases:
            for p in family:
                sol = solve(QpProblem(p.nominal, p.constraints, p.box, w, p.bounds))
                assert sol.status == STATUS_RELAXED
                if not sol.kkt_residual <= 1e-9:
                    failures.append((w, sol.kkt_residual, sol.active_set))
        assert failures == []

    def test_solve_uses_no_numpy_linear_algebra(self, stress, common_vertex, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy linear algebra called on the solve path")

        for name in ("lstsq", "solve", "inv", "pinv"):
            monkeypatch.setattr(np.linalg, name, refuse)
        optimal, degenerate, training = stress
        # kkt_residual is not read: the certificate may use numpy
        for p in degenerate + training:
            sol = solve(p)
            assert sol.status == STATUS_RELAXED and sol.slack > 0.0 and sol.active_set
            assert np.all(np.abs(sol.u_safe) <= p.box + 1e-9)
        for p in optimal + common_vertex[0] + common_vertex[1]:
            sol = solve(p)
            assert sol.status == STATUS_OPTIMAL and len(sol.active_set) <= 2
            assert np.all(np.abs(sol.u_safe) <= p.box + 1e-9)


def relaxed_training_problems(calls):
    """The problems of recorded filter calls whose rows conflict."""
    problems = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(marlshield.qp, "solve", lambda p: problems.append(p) or solve(p))
        for args in calls:
            filter_action(*args)
    return [p for p in problems if full_pair_scan(p) is None]


class TestPrunedPairScan:
    def test_matches_full_pair_scan(self, recorded_calls):
        # both phases try only candidates that hold a row violated at the
        # nominal; outputs must match the unpruned scans bit-for-bit
        rng = np.random.default_rng(34)
        problems = [
            random_problem(rng, max_rows=8, feasible_bias=bool(rng.integers(0, 2)))
            for _ in range(400)
        ]
        problems += degenerate_problems(np.random.default_rng(35), 300)
        problems += training_shaped_problems(np.random.default_rng(36), 400)
        problems += [face_bounds(p) for p in training_shaped_problems(np.random.default_rng(37), 400)]
        relaxed = [p for p in problems if full_pair_scan(p) is None]
        problems += [QpProblem(p.nominal, p.constraints, p.box, w, p.bounds) for w in (1e3, 1e9, 1e12) for p in relaxed]
        problems += relaxed_training_problems(recorded_calls["training"])
        pruned = pruned_relaxed = 0
        for p in problems:
            ref = full_pair_scan(p)
            sol = solve(p)
            if ref is None:
                (ux, uy, s), active, tried = full_relaxed_scan(p)
                assert sol.status == STATUS_RELAXED
                assert sol.active_set == active
                assert sol.u_safe.tobytes() == np.array([ux, uy]).tobytes()
                assert np.float64(sol.slack).tobytes() == np.float64(max(s, 0.0)).tobytes()
                assert sol.iterations <= tried
                pruned_relaxed += sol.iterations < tried
                continue
            u, active, tried = ref
            assert sol.status == STATUS_OPTIMAL
            assert sol.u_safe.tobytes() == np.array(u).tobytes()
            assert sol.active_set == active
            assert sol.iterations <= tried
            pruned += sol.iterations < tried
        assert pruned > 100 and pruned_relaxed > 100


class TestFaceBounds:
    def test_bounds_fold_into_the_box_of_the_projection_phase(self):
        b = (row(2.0, 0.0, 1.0), row(-0.5, 0.0, 0.25), row(0.0, -4.0, 2.0))
        p = QpProblem(np.array([0.9, -0.9]), (row(1.0, 1.0, 0.5),), 0.75, 1e6, b)
        assert p.bounds == b and p.limits == (-0.5, 0.5, -0.5, 0.75)
        assert p.rows == (row(1.0, 1.0, 0.5), row(1, 0, 0.5), row(-1, 0, 0.5), row(0, 1, 0.75), row(0, -1, 0.5))
        assert p.relaxed_rows == (row(1.0, 1.0, 0.5), *b, row(1, 0, 0.75), row(-1, 0, 0.75), row(0, 1, 0.75),
                                  row(0, -1, 0.75))
        unbounded = QpProblem(p.nominal, p.constraints, p.box)
        assert unbounded.relaxed_rows is unbounded.rows
        sol = solve(p)
        assert sol.status == STATUS_OPTIMAL and sol.u_safe.tolist() == [0.5, -0.5]
        assert sol.active_set == (1, 4) and sol.kkt_residual == 0.0

    def test_faces_as_bounds_match_faces_as_rows(self):
        # the projection phase is the same set either way, so status agrees and an
        # optimal point moves in the last bits at most; the slack phase relaxes the
        # bounds as rows, so it returns the rows' answer bit for bit
        optimal = relaxed = 0
        for p in training_shaped_problems(np.random.default_rng(38), 600):
            ref, sol = solve(p), solve(face_bounds(p))
            assert sol.status == ref.status
            assert sol.kkt_residual <= 1e-9
            if sol.status == STATUS_OPTIMAL:
                assert np.max(np.abs(sol.u_safe - ref.u_safe)) <= 1e-12
                optimal += 1
            else:
                assert sol.u_safe.tobytes() == ref.u_safe.tobytes() and sol.active_set == ref.active_set
                relaxed += 1
        assert optimal > 100 and relaxed > 100

    def test_empty_folded_interval_relaxes(self):
        # opposite bounds that cross leave no action: the rows conflict outright
        b = (row(1.0, 0.0, -0.5), row(-2.0, 0.0, -1.0))
        p = QpProblem(np.array([0.1, 0.2]), (), 1.0, 1e6, b)
        assert p.limits == (0.5, -0.5, -1.0, 1.0)
        sol = solve(p)
        assert sol.status == STATUS_RELAXED and sol.slack > 0.0 and sol.kkt_residual <= 1e-9
        ref = solve(QpProblem(p.nominal, b, 1.0, 1e6))
        assert sol.u_safe.tobytes() == ref.u_safe.tobytes() and sol.active_set == ref.active_set

    def test_box_clip_and_zero_slack_weight_with_bounds_that_exclude_zero(self):
        # the bounds narrow the box [-1, 1]^2 to [0.2, 0.6] x [-1, -0.3]
        b = (row(1, 0, 0.6), row(-1, 0, -0.2), row(0, 1, -0.3))
        for nominal, u, active, u_relaxed, active_relaxed in (
            ((0.0, 0.0), (0.2, -0.3), (2, 3), (0.0, 0.0), ()),
            ((0.9, -2.0), (0.6, -1.0), (1, 4), (0.9, -1.0), (7,)),
            ((0.4, -0.5), (0.4, -0.5), (), (0.4, -0.5), ()),
        ):
            p = QpProblem(np.array(nominal), (row(1, 1, 5.0),), 1.0, 1e6, b)
            assert p.limits == (0.2, 0.6, -1.0, -0.3)
            sol = solve(p)
            assert sol.status == STATUS_OPTIMAL and sol.iterations == 0
            assert (tuple(sol.u_safe.tolist()), sol.active_set) == (u, active)
            assert sol.kkt_residual <= 1e-9
            assert full_pair_scan(p) == (u, active, 0)
            # a row no bounded action meets, at zero slack weight: the slack absorbs
            # it and the bounds alike, so only the box binds the action
            p = QpProblem(np.array(nominal), (row(1, 0, -2.0),), 1.0, 0.0, b)
            sol = solve(p)
            assert sol.status == STATUS_RELAXED
            assert (tuple(sol.u_safe.tolist()), sol.active_set) == (u_relaxed, active_relaxed)
            assert sol.slack == u_relaxed[0] + 2.0 and sol.kkt_residual <= 1e-9
            assert full_relaxed_scan(p) == ((*u_relaxed, u_relaxed[0] + 2.0), active_relaxed, 0)

    def test_kkt_and_grid_oracles_on_training_shaped_problems(self):
        problems = [face_bounds(p) for p in training_shaped_problems(np.random.default_rng(39), 300)]
        for p in problems:
            assert solve(p).kkt_residual <= 1e-9
        for p in problems[::6]:
            assert_matches_oracles(p, solve(p))


class TestValidation:
    def test_problem_rejects_bad_box_and_weight(self):
        u = np.array([0.1, 0.2])
        for kwargs in (
            {"box": 0.0},
            {"box": -1.0},
            {"box": np.inf},
            {"box": (-1.0, 1.0, -1.0, 1.0)},
            {"slack_weight": -1.0},
            {"slack_weight": np.nan},
        ):
            with pytest.raises(ValueError):
                QpProblem(nominal=u, **kwargs)

    @pytest.mark.parametrize("value", ["1", None, object()], ids=["string", "none", "object"])
    def test_non_numbers_give_value_error(self, value):
        for kwargs in ({"box": value}, {"slack_weight": value}):
            with pytest.raises(ValueError):
                QpProblem(np.zeros(2), **kwargs)
        with pytest.raises(ValueError):
            QpProblem(np.zeros(2), ((1.0, 0.0, value),))

    def test_problem_rejects_bad_bounds(self):
        u = np.array([0.1, 0.2])
        bad = [(1.0, 1.0, 0.5), (0.0, 0.0, 1.0), (np.nan, 0.0, 0.5), (0.0, 1.0, np.inf), (1.0, 0.0), "abc", None]
        for b in bad:
            with pytest.raises(ValueError):
                QpProblem(u, (), 1.0, 1e6, (row(1.0, 0.0, 0.5), b))
        p = QpProblem(u, (), 1.0, 1e6, [(2, 0, 1), np.array([0.0, -0.5, 0.25])])
        assert p.bounds == ((2.0, 0.0, 1.0), (0.0, -0.5, 0.25)) and p.limits == (-1.0, 0.5, -0.5, 1.0)

    def test_rows_are_constraints_then_box(self):
        cons = (row(1.0, -2.0, 0.5), row(-0.25, 3.0, -1.5))
        p = QpProblem(nominal=np.array([0.3, 0.4]), constraints=list(cons), box=0.75)
        assert isinstance(p.rows, tuple)
        assert isinstance(p.constraints, tuple)
        assert p.rows == (
            (1.0, -2.0, 0.5),
            (-0.25, 3.0, -1.5),
            (1.0, 0.0, 0.75),
            (-1.0, 0.0, 0.75),
            (0.0, 1.0, 0.75),
            (0.0, -1.0, 0.75),
        )
        assert all(type(v) is float for r in p.rows for v in r)
        assert p.rows[:2] == p.constraints

    def test_problem_rejects_bad_rows(self):
        u = np.array([0.1, 0.2])
        bad = [(np.nan, 1.0, 0.5), (1.0, np.inf, 0.5), (1.0, 0.0, np.nan), (1.0, 0.0, -np.inf),
               (0.0, 0.0, 1.0), (-0.0, 0.0, 1.0), (0.0, -0.0, -1.0), (np.float64(0.0), 0, 2)]
        not_triples = [(1.0, 0.0), (1.0, 0.0, 0.5, 0.0), [1.0], 1.0, None, "abc", {"ax": 1.0}]
        for r in [form(r) for r in bad for form in (tuple, list, np.array)] + not_triples:
            with pytest.raises(ValueError):
                QpProblem(u, (row(1.0, 0.0, 0.5), r))

    def test_integer_rows_become_floats(self):
        for r in ((1, 0, 2), [1, 0, 2], np.array([1, 0, 2]), (np.float64(1.0), np.int64(0), 2.0)):
            p = QpProblem(np.zeros(2), (r,))
            assert p.constraints == ((1.0, 0.0, 2.0),) and p.rows[0] is p.constraints[0]
            assert all(type(v) is float for v in p.rows[0])


class TestContainers:
    BAD_NORMALS = ((np.nan, 1.0), (1.0, np.nan), (np.inf, 0.0), (0.0, -np.inf), (0.0, 0.0), (-0.0, 0.0))

    @pytest.mark.parametrize("form", [tuple, list, np.array], ids=["tuple", "list", "array"])
    def test_constraint_rejects_bad_normals_in_every_form(self, form):
        for normal in self.BAD_NORMALS:
            with pytest.raises(ValueError):
                QpProblem(np.zeros(2), (form((*normal, 1.0)),))
        for bound in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                QpProblem(np.zeros(2), (form((1.0, 0.0, bound)),))

    def test_normal_reads_as_a_fresh_copy_of_the_floats(self):
        for form in (tuple, list, np.array):
            source = form((0.3, -1.7, 0.5))
            p = QpProblem(np.zeros(2), (source,))
            ax, ay, b = p.constraints[0]
            assert type(ax) is float and type(ay) is float and type(b) is float
            if form is not tuple:
                source[0] = 9.0  # the caller's list or array is not aliased
            assert p.constraints[0] == p.rows[0] == (0.3, -1.7, 0.5)

    def test_problem_fields_are_read_only(self):
        p = QpProblem(np.array([0.1, 0.2]), (row(1.0, 0.0, 0.5),))
        for name in ("nominal", "constraints", "box", "slack_weight", "bounds", "rows", "limits", "relaxed_rows",
                     "extra"):
            with pytest.raises(AttributeError):
                setattr(p, name, None)
        assert p.box == 1.0 and len(p.rows) == 5

    def test_solution_order_defaults_and_repr(self):
        solved = QpProblem(np.array([1.0, 0.0]), (row(1.0, 0.0, 0.5),))
        sol = QpSolution(np.array([0.5, 0.0]), 0.0, (0,), solved, STATUS_OPTIMAL)
        assert sol.iterations == 0 and sol.problem is solved
        # the repr shows the residual, read from the solved problem, in place of the problem
        assert repr(sol) == (
            "QpSolution(u_safe=array([0.5, 0. ]), slack=0.0, active_set=(0,), "
            "kkt_residual=0.0, status='optimal', iterations=0)"
        )
        p = QpProblem(np.array([1.0, 0.0]), box=2.0)
        assert repr(p) == (
            "QpProblem(nominal=array([1., 0.]), constraints=(), box=2.0, slack_weight=1000000.0, bounds=())"
        )


class TestOneFinitenessTestPerRow:
    """`QpProblem` tests each row's finiteness with one expression; the outcome and messages are unchanged."""

    CONSTRAINT = "constraint row {!r} is not a finite (ax, ay, b) with (ax, ay) != 0"
    BOUND = "bound row {!r} is not a finite (ax, ay, b) with one of ax, ay zero"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("slot", [0, 1, 2], ids=["ax", "ay", "b"])
    def test_non_finite_slots_keep_their_messages(self, slot, bad):
        u = np.array([0.1, 0.2])
        for base, kind in (((0.5, -0.25, 0.75), "constraint"), ((2.0, 0.0, 0.5), "bound"),
                           ((0.0, -4.0, 0.5), "bound")):
            values = list(base)
            values[slot] = bad
            for r in (tuple(values), values, tuple(map(np.float64, values))):
                if kind == "constraint":
                    args, message = ((row(1.0, 0.0, 0.5), r),), self.CONSTRAINT.format(r)
                else:
                    args, message = ((), 1.0, 1e6, (row(1.0, 0.0, 0.5), r)), self.BOUND.format(r)
                with pytest.raises(ValueError) as err:
                    QpProblem(u, *args)
                assert str(err.value) == message

    BIG, TINY = 1.7976931348623157e308, 5e-324

    def test_extreme_finite_rows_are_accepted(self):
        # 0*ax + 0*ay + 0*b stays 0 for the largest and the smallest floats, where
        # a test that summed the components first would overflow to inf
        big, tiny, u = self.BIG, self.TINY, np.array([0.1, 0.2])
        for v in (big, tiny):
            for r in itertools.product((v, -v), repeat=3):
                assert QpProblem(u, (r,)).constraints == (r,)
                for b in ((r[0], 0.0, r[2]), (0.0, r[1], r[2])):
                    assert QpProblem(u, (r,), 1.0, 1e6, (b,)).bounds == (b,)

    def test_extreme_finite_rows_solve_as_before(self):
        big, tiny = self.BIG, self.TINY
        # (nominal, constraints, bounds) -> (u_safe, active set, candidates), as solved
        # before the one-expression finiteness test and the constraint-only fast path
        for nominal, cons, bounds, u, active, iterations in (
            ((0.3, -0.2), ((big, big, big),), (), (0.3, -0.2), (), 0),
            ((0.3, -0.2), ((-big, -big, big),), (), (0.3, -0.2), (), 0),
            ((2.0, -3.0), ((big, big, -big),), (), (-0.0, -1.0), (0, 4), 5),
            ((2.0, -3.0), ((-big, -big, -big),), (), (1.0, 0.0), (0, 1), 4),
            ((-0.9, 0.9), ((big, big, -big),), (), (-1.0, 0.0), (0, 2), 3),
            ((-0.9, 0.9), ((-big, -big, -big),), (), (-0.0, 1.0), (0, 3), 4),
            ((0.3, -0.2), ((tiny, tiny, tiny),), (), (0.3, -0.2), (), 0),
            ((2.0, -3.0), ((tiny, tiny, -tiny),), (), (1.0, -1.0), (1, 4), 7),
            ((-0.9, 0.9), ((tiny, -tiny, -tiny),), (), (-0.9, 0.9), (), 0),
            ((2.0, -3.0), ((big, 0.0, 0.5), (1.0, 1.0, 0.5)), ((0.0, -big, -big),), (-0.5, 1.0), (1, 5), 10),
            ((-0.9, 0.9), ((big, 0.0, 0.5), (1.0, 1.0, 0.5)), ((-big, 0.0, tiny),), (0.0, 0.5), (1, 3), 3),
            ((0.3, -0.2), ((big, tiny, big),), ((tiny, 0.0, tiny),), (0.3, -0.2), (), 0),
            ((1.5, 0.4), ((big, tiny, big),), ((tiny, 0.0, tiny),), (1.0, 0.4), (1,), 0),
        ):
            sol = solve(QpProblem(np.array(nominal), cons, 1.0, 1e6, bounds))
            assert sol.status == STATUS_OPTIMAL and sol.slack == 0.0
            assert sol.u_safe.tobytes() == np.array(u).tobytes()
            assert (sol.active_set, sol.iterations) == (active, iterations)

    def test_bounds_with_extreme_floats_fold_as_before(self):
        big, tiny = self.BIG, self.TINY
        u = np.array([0.1, 0.2])
        # b / ax overflows to inf (no limit) or underflows to 0 (a limit at 0)
        assert QpProblem(u, (), 1.0, 1e6, ((tiny, 0.0, big),)).limits == (-1.0, 1.0, -1.0, 1.0)
        assert QpProblem(u, (), 1.0, 1e6, ((big, 0.0, tiny),)).limits == (-1.0, 0.0, -1.0, 1.0)
        assert QpProblem(u, (), 1.0, 1e6, ((0.0, -big, -tiny),)).limits == (-1.0, 1.0, 0.0, 1.0)
        assert QpProblem(u, (), 1.0, 1e6, ((0.0, big, big),)).limits == (-1.0, 1.0, -1.0, 1.0)


class TestBoxClipMeetsLimitRows:
    """The projection fast path checks only the constraint rows of `problem.rows`.

    That is sound because the box clip of any nominal lies within `limits`
    and so satisfies the four limit rows closing `rows` exactly, with no
    tolerance, whenever the limits are non-empty.
    """

    def test_clip_satisfies_the_four_limit_rows(self):
        rng = np.random.default_rng(41)
        checked = excluding_zero = far = 0
        for _ in range(4000):
            scale = float(rng.choice([1.0, 3.0, 1e6, 1e300]))
            nominal = rng.uniform(-1.0, 1.0, 2) * scale
            bounds = []
            for _ in range(int(rng.integers(0, 5))):
                axis, c = int(rng.integers(0, 2)), float(rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 10.0))
                bounds.append((c, 0.0, float(rng.uniform(-5.0, 5.0))) if axis == 0
                              else (0.0, c, float(rng.uniform(-5.0, 5.0))))
            cons = tuple(row(*rng.normal(size=2), float(rng.uniform(-1.0, 1.0))) for _ in range(int(rng.integers(0, 3))))
            p = QpProblem(nominal, cons, float(rng.uniform(0.1, 3.0)), 1e6, tuple(bounds))
            lox, hix, loy, hiy = p.limits
            if lox > hix or loy > hiy:
                continue
            m = len(p.rows) - 4
            hx, hy = p.nominal.tolist()
            (cx, cy), _ = marlshield.qp._box_clip(hx, hy, p.limits, m)
            for ax, ay, b in p.rows[m:]:
                assert ax * cx + ay * cy <= b
            checked += 1
            excluding_zero += lox > 0.0 or hix < 0.0 or loy > 0.0 or hiy < 0.0
            far += not (lox <= hx <= hix and loy <= hy <= hiy)
        assert checked > 2000 and excluding_zero > 200 and far > 1000

    def test_solve_matches_the_scan_that_checks_every_row(self):
        rng = np.random.default_rng(42)
        for _ in range(400):
            bounds = tuple(
                (float(rng.choice([-1.0, 1.0])) * 2.0, 0.0, float(rng.uniform(-1.5, 1.5))) if rng.integers(0, 2)
                else (0.0, float(rng.choice([-1.0, 1.0])) * 0.5, float(rng.uniform(-0.5, 0.5)))
                for _ in range(int(rng.integers(0, 4)))
            )
            cons = tuple(row(*rng.normal(size=2), float(rng.uniform(-0.5, 1.5))) for _ in range(int(rng.integers(0, 4))))
            p = QpProblem(rng.uniform(-4.0, 4.0, 2), cons, 1.0, 1e6, bounds)
            ref, sol = full_pair_scan(p), solve(p)
            if ref is None:
                assert sol.status == STATUS_RELAXED
                continue
            assert sol.status == STATUS_OPTIMAL
            assert sol.u_safe.tobytes() == np.array(ref[0]).tobytes() and sol.active_set == ref[1]
            assert (sol.iterations == 0) == (ref[2] == 0)


HUGE = 10**400  # a Python int beyond the float range: float(HUGE) raises OverflowError
STILL = AgentState([0.0, 0.0], [0.0, 0.0])


class TestHugeIntegersGiveValueError:
    """A Python int beyond the float range is not finite: each check raises the ValueError of its slot."""

    CONSTRAINT = TestOneFinitenessTestPerRow.CONSTRAINT
    BOUND = TestOneFinitenessTestPerRow.BOUND

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: QpProblem(np.zeros(2), box=HUGE), "box must be a positive finite scalar"),
            (lambda: QpProblem(np.zeros(2), slack_weight=HUGE), "slack_weight must be >= 0"),
            (lambda: QpProblem(np.zeros(2), box=HUGE, slack_weight=-1.0), "box must be a positive finite scalar"),
            (lambda: QpProblem(np.zeros(2), box=-1.0, slack_weight=HUGE), "box must be a positive finite scalar"),
            (lambda: QpProblem(np.zeros(2), ((1, 0, HUGE),)), CONSTRAINT.format((1, 0, HUGE))),
            (lambda: QpProblem(np.zeros(2), ((HUGE, 0, 1),)), CONSTRAINT.format((HUGE, 0, 1))),
            (lambda: QpProblem(np.zeros(2), ((0.5, -HUGE, 1.0),)), CONSTRAINT.format((0.5, -HUGE, 1.0))),
            (lambda: QpProblem(np.zeros(2), (), 1.0, 1e6, ((1, 0, HUGE),)), BOUND.format((1, 0, HUGE))),
            (lambda: QpProblem(np.zeros(2), (), 1.0, 1e6, ((0, -HUGE, 1),)), BOUND.format((0, -HUGE, 1))),
            (lambda: QpProblem([HUGE, 0]), f"nominal action must be finite, got {[HUGE, 0]!r}"),
            (lambda: step_agent(STILL, [HUGE, 0], 0.1), f"accel must be a finite 2-vector, got {[HUGE, 0]!r}"),
            (lambda: step_agent(STILL, [0, -HUGE], 0.1), f"accel must be a finite 2-vector, got {[0, -HUGE]!r}"),
            (lambda: step_agent(STILL, [0, 0], HUGE), f"dt must be a positive finite number, got {HUGE!r}"),
            (lambda: AgentState([HUGE, 0], [0, 0]), f"position must be a finite 2-vector, got {[HUGE, 0]!r}"),
        ],
        ids=["box", "slack_weight", "huge box first", "bad box first", "constraint b", "constraint ax",
             "constraint ay", "bound b", "bound ay", "nominal", "accel x", "accel y", "dt", "position"],
    )
    def test_value_error_with_the_message_of_its_slot(self, call, message):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message

    @staticmethod
    def env_step(actions):
        env = PatrolEnv(default_world(), ShieldParams())
        return env.step(env.reset(1)[0], actions)

    @pytest.mark.parametrize(
        "call, prefix",
        [
            (lambda: WorldConfig(wall_half_extent=HUGE), "wall_half_extent, dt, v_max and a_max must be finite, got "),
            (lambda: WorldConfig(dt=HUGE), "wall_half_extent, dt, v_max and a_max must be finite, got "),
            (lambda: ShieldParams(d_s=HUGE), "shield parameters must be finite, got ShieldParams("),
            (lambda: ObstacleSpec([0, 0], radius=HUGE), f"obstacle radius must be >= 0, got {HUGE!r}"),
            (lambda: PatrolEnv(default_world(), ShieldParams(), d_c=HUGE),
             f"d_c and reset_margin must be finite and >= 0, got {HUGE!r} and 0.05"),
            (lambda: h_cooperative((HUGE, 0), (0, 0), ShieldParams()), f"dp must be finite, got {(HUGE, 0)!r}"),
            (lambda: h_noncooperative((1, 0), (HUGE, 0), ShieldParams()), f"v_self must be finite, got {(HUGE, 0)!r}"),
            (lambda: face_clearances([HUGE, 0], 1.0), f"position must be finite, got {[HUGE, 0]!r}"),
            (lambda: filter_action(0, [HUGE, 0], STILL, [(0, STILL)], (), WorldConfig(), ShieldParams()),
             f"nominal action must be finite, got {[HUGE, 0]!r}"),
            (lambda: TestHugeIntegersGiveValueError.env_step([[HUGE, 0], [0, 0]]), "actions must be finite"),
            (lambda: TrainerConfig(lr_actor=HUGE), "trainer parameters must be finite, got TrainerConfig("),
            (lambda: TrainerConfig(noise_sigma=HUGE), "trainer parameters must be finite, got TrainerConfig("),
        ],
        ids=["wall_half_extent", "dt", "d_s", "obstacle radius", "d_c", "h_cooperative dp", "h_noncooperative v_self",
             "face_clearances", "filter_action nominal", "env step actions", "lr_actor", "noise_sigma"],
    )
    def test_value_error_across_the_package(self, call, prefix):
        # a message that ends in a config's repr is pinned by its fixed part
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value).startswith(prefix)


class TestDegenerateNormals:
    def test_subnormal_row_fails_its_one_row_candidate_in_both_phases(self):
        # |a|^2 underflows to 0; the projection phase's one-row candidate is a
        # NaN that fails, as the slack phase's is for |a|^2 <= 1e-12, instead
        # of a ZeroDivisionError. The vertices with the box rows are
        # degenerate too, so the rows conflict, and the slack absorbs the row.
        tiny = 5e-324
        p = QpProblem(np.array([0.3, -0.2]), ((tiny, tiny, -tiny),))
        sol = solve(p)
        assert sol.status == STATUS_RELAXED and sol.active_set == (0,) and sol.iterations == 1
        assert sol.u_safe.tolist() == [0.3, -0.2] and sol.slack == tiny
        assert sol.kkt_residual <= 1e-9


class TestCertificateWithoutNumpy:
    def test_certifies_stress_and_common_vertex_families_without_numpy(self, stress, common_vertex, monkeypatch):
        optimal, degenerate, training = stress
        relaxed = [QpProblem(p.nominal, p.constraints, p.box, w, p.bounds) for w in (1e3, 1e12) for p in degenerate]
        problems = optimal + degenerate + training + relaxed + common_vertex[0] + common_vertex[1]
        solutions = [solve(p) for p in problems]

        def refuse(*args, **kwargs):
            raise AssertionError("numpy called by the certificate")

        for name in ("lstsq", "solve", "inv", "pinv"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for name in ("array", "asarray", "stack", "dot", "matmul"):
            monkeypatch.setattr(np, name, refuse)
        worst = max(sol.kkt_residual for sol in solutions)
        monkeypatch.undo()
        assert worst <= 1e-9
        assert sum(sol.status == STATUS_RELAXED for sol in solutions) > 6000
