import math

import numpy as np
import pytest

from marlshield.barriers import LinearConstraint
from marlshield.qp import (
    STATUS_OPTIMAL,
    STATUS_RELAXED,
    QpProblem,
    QpSolution,
    kkt_check,
    solve,
)

from qp_oracle import full_pair_scan, grid_project, grid_relaxed


def row(nx, ny, b):
    return LinearConstraint(normal=np.array([nx, ny]), bound=b, kind="non-cooperative")


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
            row(np.inf, 0.0, 1.0)


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
            kkt_residual=0.0,
            status=sol.status,
        )
        assert kkt_check(p, bad) > 1e-6


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
            if any(float(c.normal @ u) > c.bound for c in p.constraints):
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


class TestPrunedPairScan:
    def test_matches_full_pair_scan(self):
        # the solver skips vertex pairs whose rows both hold at the nominal;
        # outputs must match the unpruned scan bit-for-bit
        rng = np.random.default_rng(34)
        problems = [
            random_problem(rng, max_rows=8, feasible_bias=bool(rng.integers(0, 2)))
            for _ in range(400)
        ]
        problems += degenerate_problems(np.random.default_rng(35), 300)
        problems += training_shaped_problems(np.random.default_rng(36), 400)
        pruned = 0
        for p in problems:
            ref = full_pair_scan(p)
            sol = solve(p)
            if ref is None:
                assert sol.status == STATUS_RELAXED
                continue
            u, active, tried = ref
            assert sol.status == STATUS_OPTIMAL
            assert sol.u_safe.tobytes() == np.array(u).tobytes()
            assert sol.active_set == active
            assert sol.iterations <= tried
            pruned += sol.iterations < tried
        assert pruned > 100


class TestValidation:
    def test_constraint_rejects_bad_rows(self):
        for normal, bound in (
            ((np.nan, 1.0), 1.0),
            ((0.0, 0.0), 1.0),
            ((1.0, 0.0), np.nan),
            ((1.0, 0.0), np.inf),
            ((1.0, 0.0), -np.inf),
        ):
            with pytest.raises(ValueError):
                LinearConstraint(np.array(normal), bound, "non-cooperative")

    def test_problem_rejects_bad_box_and_weight(self):
        u = np.array([0.1, 0.2])
        for kwargs in (
            {"box": 0.0},
            {"box": -1.0},
            {"box": np.inf},
            {"slack_weight": -1.0},
            {"slack_weight": np.nan},
        ):
            with pytest.raises(ValueError):
                QpProblem(nominal=u, **kwargs)

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


class TestContainers:
    BAD_NORMALS = ((np.nan, 1.0), (1.0, np.nan), (np.inf, 0.0), (0.0, -np.inf), (0.0, 0.0), (-0.0, 0.0))

    @pytest.mark.parametrize("form", [tuple, list, np.array], ids=["tuple", "list", "array"])
    def test_constraint_rejects_bad_normals_in_every_form(self, form):
        for normal in self.BAD_NORMALS:
            with pytest.raises(ValueError):
                LinearConstraint(form(normal), 1.0, "wall")
        for bound in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                LinearConstraint(form((1.0, 0.0)), bound, "wall")

    def test_normal_reads_as_a_fresh_copy_of_the_floats(self):
        expected = np.array([0.3, -1.7]).tobytes()
        for form in (tuple, list, np.array):
            source = form((0.3, -1.7))
            c = LinearConstraint(source, 0.5, "wall")
            p = QpProblem(np.zeros(2), (c,))
            assert type(c.ax) is float and type(c.ay) is float
            assert c.normal.tobytes() == expected
            c.normal[0] = 9.0
            if form is not tuple:
                source[0] = 9.0  # nor is the caller's list or array aliased
            assert (c.ax, c.ay) == (0.3, -1.7) and p.rows[0] == (0.3, -1.7, 0.5)
            assert c.normal.tobytes() == expected

    def test_integer_normals_become_floats(self):
        for normal in ((1, 0), np.array([1, 0]), (np.float64(1.0), 0.0)):
            c = LinearConstraint(normal, 2, "non-cooperative")
            assert type(c.ax) is float and type(c.ay) is float
            assert c.normal.dtype == np.float64

    def test_problem_fields_are_read_only(self):
        p = QpProblem(np.array([0.1, 0.2]), (row(1.0, 0.0, 0.5),))
        for name in ("nominal", "constraints", "box", "slack_weight", "rows", "extra"):
            with pytest.raises(AttributeError):
                setattr(p, name, None)
        assert p.box == 1.0 and len(p.rows) == 5

    def test_solution_order_defaults_and_repr(self):
        sol = QpSolution(np.array([0.5, 0.0]), 0.0, (0,), 1e-16, STATUS_OPTIMAL)
        assert sol.iterations == 0
        assert repr(sol) == (
            "QpSolution(u_safe=array([0.5, 0. ]), slack=0.0, active_set=(0,), "
            "kkt_residual=1e-16, status='optimal', iterations=0)"
        )
        p = QpProblem(np.array([1.0, 0.0]), box=2.0)
        assert repr(p) == "QpProblem(nominal=array([1., 0.]), constraints=(), box=2.0, slack_weight=1000000.0)"
