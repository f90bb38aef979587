import numpy as np
import pytest

import fillin.lp
from fillin.lp import (
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    Basis,
    LpProblem,
    LpResult,
    solve_lp,
)
from helpers import lp_vertex_optimum


def box_problem(rows, rhs, num_vars=None):
    """Rows over the unit box; num_vars is needed only when there are no rows."""
    nv = len(rows[0]) if num_vars is None else num_vars
    return LpProblem(np.reshape(rows, (len(rhs), nv)), rhs, np.zeros(nv), np.ones(nv))


def random_problem(rng, num_vars=None, num_rows=None, with_fixings=False):
    nv = num_vars or int(rng.integers(2, 7))
    nr = num_rows if num_rows is not None else int(rng.integers(1, 6))
    rows, rhs = [], []
    for _ in range(nr):
        support = rng.choice(nv, size=int(rng.integers(1, nv + 1)), replace=False)
        row = np.zeros(nv)
        for j in support:
            row[j] = float(rng.integers(-3, 4))
        if not row.any():
            continue
        rows.append(row)
        rhs.append(float(rng.integers(-3, 4)))
    p = box_problem(rows, rhs, nv)
    if with_fixings and rng.random() < 0.5 and nv > 1:
        j = int(rng.integers(0, nv))
        p.lb[j] = p.ub[j] = float(rng.integers(0, 2))
    return p


def assert_certifies_infeasibility(p, r):
    """r.certificate y >= 0 combines the rows into an inequality
    y @ rows @ x >= y @ rhs that no point in the box satisfies."""
    y = r.certificate
    assert y.shape == (len(p.rows),)
    assert (y >= 0).all()
    combo = y @ p.rows
    best_lhs = float(np.where(combo > 0, combo * p.ub, combo * p.lb).sum())
    assert best_lhs < y @ p.rhs + 1e-6


def assert_same_solution(warm, cold):
    assert warm.status == cold.status
    if cold.status == OPTIMAL:
        assert warm.objective == pytest.approx(cold.objective, abs=1e-7)


class TestBasics:
    def test_no_rows_gives_zero(self):
        r = solve_lp(box_problem([], [], 4))
        assert r.status == OPTIMAL
        assert r.objective == 0.0
        assert (r.point.values == 0).all()

    def test_single_covering_row(self):
        r = solve_lp(box_problem([[1.0, 1.0]], [1.0]))
        assert r.status == OPTIMAL
        assert r.objective == pytest.approx(1.0)
        # vertex solution: one variable at 1, the other at 0
        assert sorted(r.point.values) == pytest.approx([0.0, 1.0])

    def test_c5_row_with_fixing(self):
        p = box_problem([[1.0] * 5], [2.0])
        p.ub[2] = 0.0
        r = solve_lp(p)
        assert r.status == OPTIMAL
        assert r.objective == pytest.approx(2.0)
        assert r.point.values[2] == 0.0

    def test_zero_variables(self):
        r = solve_lp(box_problem([], [], 0))
        assert r.status == OPTIMAL and r.objective == 0.0

    @pytest.mark.parametrize("shapes", [
        ((2, 3), (3,), (3,), (3,)),  # rhs length differs from the row count
        ((2, 3), (2,), (2,), (3,)),  # lower bounds shorter than the rows
        ((2, 3), (2,), (3,), (4,)),  # upper bounds longer than the rows
        ((3,), (1,), (3,), (3,)),    # rows not a matrix
    ])
    def test_shape_mismatch_rejected(self, shapes):
        rows, rhs, lb, ub = shapes
        with pytest.raises(ValueError):
            LpProblem(np.ones(rows), np.ones(rhs), np.zeros(lb), np.ones(ub))

    def test_infeasible_by_bounds(self):
        # cannot reach 3 inside the unit box
        r = solve_lp(box_problem([[1.0, 1.0]], [3.0]))
        assert r.status == INFEASIBLE
        assert r.point is None
        assert r.certificate is not None

    def test_infeasible_certificate_property(self):
        # y combines rows into an inequality no point in the box satisfies
        rng = np.random.default_rng(8)
        found = 0
        for _ in range(200):
            p = random_problem(rng)
            r = solve_lp(p)
            if r.status != INFEASIBLE:
                continue
            found += 1
            assert_certifies_infeasibility(p, r)
        assert found >= 3

    def test_iteration_limit_status(self, monkeypatch):
        p = box_problem([[1.0 if j in (i, (i + 1) % 4) else 0.0 for j in range(4)]
                         for i in range(4)], [1.0] * 4)
        assert solve_lp(p).status == OPTIMAL
        monkeypatch.setattr(fillin.lp, "PIVOTS_PER_DIM", 0)
        r = solve_lp(p)
        assert r.status == ITERATION_LIMIT
        assert r.iterations == 0


class TestAgainstVertexEnumeration:
    def test_random_small_lps(self):
        rng = np.random.default_rng(99)
        checked = 0
        for _ in range(120):
            p = random_problem(rng, with_fixings=True)
            expected = lp_vertex_optimum(p.rows, p.rhs, p.lb, p.ub)
            r = solve_lp(p)
            if expected is None:
                assert r.status == INFEASIBLE
            else:
                assert r.status == OPTIMAL
                assert r.objective == pytest.approx(expected, abs=1e-7)
                checked += 1
        assert checked >= 60

    def test_warm_start_agrees(self):
        # from its own optimal basis a re-solve pivots no more; from an
        # arbitrary basis (often singular or dual infeasible, so the slack
        # basis takes over) it reaches the same optimum
        rng = np.random.default_rng(5)
        for _ in range(40):
            p = random_problem(rng)
            r_cold = solve_lp(p)
            if r_cold.status == OPTIMAL:
                again = solve_lp(p, basis=r_cold.basis)
                assert again.iterations == 0
                assert again.point.values == pytest.approx(r_cold.point.values, abs=1e-9)
            m, nv = p.rows.shape
            k = int(rng.integers(0, min(m, nv) + 1))
            basis = Basis(tuple(rng.choice(nv, k, replace=False).tolist()),
                          tuple(rng.choice(m, k, replace=False).tolist()))
            assert_same_solution(solve_lp(p, basis=basis), r_cold)


class TestWarmBasis:
    """Re-solves from an earlier optimal basis, as the branch-and-cut does
    after a cut round (rows appended) and for a child (a variable fixed)."""

    def test_nonbasic_starts_at_the_bound_its_reduced_cost_favours(self):
        # x0 basic on the tight row: its multiplier is about 1, so x1's
        # reduced cost is about 1 - 3 < 0 and x1 starts at its upper bound,
        # where the point (0, 1) is already optimal
        r = solve_lp(box_problem([[1.0, 3.0]], [3.0]), basis=Basis((0,), (0,)))
        assert r.status == OPTIMAL and r.iterations == 0
        assert r.point.values == pytest.approx([0.0, 1.0])
        assert r.at_upper.tolist() == [False, True]

    def test_appended_row_resolves_from_basis(self):
        rng = np.random.default_rng(21)
        checked = infeasible = 0
        for _ in range(300):
            p = random_problem(rng, with_fixings=True)
            base = solve_lp(p)
            if base.status != OPTIMAL:
                continue
            row = np.zeros(p.lb.size)
            support = rng.choice(p.lb.size, size=int(rng.integers(1, p.lb.size + 1)),
                                 replace=False)
            row[support] = rng.integers(-2, 4, size=support.size)
            q = LpProblem(np.vstack([p.rows, row]), np.append(p.rhs, rng.integers(0, 4)),
                          p.lb, p.ub)
            assert len(q.rhs) - 1 not in base.basis.rows  # its surplus starts basic
            warm = solve_lp(q, basis=base.basis)
            assert_same_solution(warm, solve_lp(q))
            if warm.status == INFEASIBLE:
                assert_certifies_infeasibility(q, warm)
                infeasible += 1
            checked += 1
        assert checked >= 100 and infeasible >= 5

    def test_fixed_variable_resolves_from_parent_basis(self):
        rng = np.random.default_rng(22)
        checked = infeasible = 0
        for _ in range(300):
            p = random_problem(rng)
            base = solve_lp(p)
            if base.status != OPTIMAL:
                continue
            frac = np.flatnonzero(np.abs(base.point.values - 0.5) < 0.5 - 1e-9)
            j = int(frac[0]) if frac.size else int(rng.integers(0, p.lb.size))
            for val in (0.0, 1.0):
                lb, ub = p.lb.copy(), p.ub.copy()
                lb[j] = ub[j] = val
                child = LpProblem(p.rows, p.rhs, lb, ub)
                warm = solve_lp(child, basis=base.basis)
                assert_same_solution(warm, solve_lp(child))
                if warm.status == INFEASIBLE:
                    assert_certifies_infeasibility(child, warm)
                    infeasible += 1
                checked += 1
        assert checked >= 100 and infeasible >= 5


class TestFeasibilityAndDeterminism:
    def test_returned_point_satisfies_everything(self):
        rng = np.random.default_rng(77)
        for _ in range(80):
            p = random_problem(rng, with_fixings=True)
            r = solve_lp(p)
            if r.status != OPTIMAL:
                continue
            x = r.point.values
            assert (x >= p.lb - 1e-9).all() and (x <= p.ub + 1e-9).all()
            for row, rhs in zip(p.rows, p.rhs):
                assert sum(a * xj for a, xj in zip(row, x)) >= rhs - 1e-7
            assert r.objective == pytest.approx(float(x.sum()), rel=1e-9, abs=1e-9)

    def test_adding_rows_never_decreases_objective(self):
        rng = np.random.default_rng(55)
        for _ in range(40):
            p = random_problem(rng, num_rows=2)
            base = solve_lp(p)
            if base.status != OPTIMAL:
                continue
            support = rng.choice(p.lb.size, size=2, replace=False)
            row = np.zeros(p.lb.size)
            for j in support:
                row[j] = float(rng.integers(1, 3))
            rhs = float(rng.integers(0, 3))
            again = solve_lp(LpProblem(np.vstack([p.rows, row]), np.append(p.rhs, rhs),
                                       p.lb, p.ub))
            if again.status == OPTIMAL:
                assert again.objective >= base.objective - 1e-9

    def test_identical_inputs_identical_results(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            p = random_problem(rng)
            r1 = solve_lp(p)
            r2 = solve_lp(p)
            assert r1.status == r2.status
            assert r1.iterations == r2.iterations
            if r1.status == OPTIMAL:
                assert (r1.point.values == r2.point.values).all()

    def test_reduced_costs_reported(self):
        r = solve_lp(box_problem([[1.0, 1.0, 0.0]], [1.0]))
        assert r.reduced_costs is not None
        assert r.reduced_costs.shape == (3,)
        # variable 2 is untouched by any row: moving it up costs exactly 1
        assert r.reduced_costs[2] == pytest.approx(1.0)
