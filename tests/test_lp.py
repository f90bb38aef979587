from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fillin.lp
from fillin.lp import (
    CLOCK_EVERY,
    CUTOFF,
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    Basis,
    LpError,
    LpProblem,
    LpResult,
    _DualSimplex,
    packing_basis,
    solve_lp,
)
from helpers import lp_vertex_optimum, reference_entering


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

    def test_zero_variables_unmeetable_row(self):
        # the row 0 >= 1 holds for no point
        p = box_problem([[]], [1.0], 0)
        r = solve_lp(p)
        assert r.status == INFEASIBLE
        assert_certifies_infeasibility(p, r)

    def test_zero_variables_met_row(self):
        r = solve_lp(box_problem([[]], [-1.0], 0))
        assert r.status == OPTIMAL and r.objective == 0.0 and len(r.point) == 0

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


class TestCutoff:
    """A cutoff stops a solve once its dual bound passes it; it never
    changes an LP that ends below it."""

    def test_bound_is_valid_against_vertex_enumeration(self):
        rng = np.random.default_rng(41)
        cut_off = optimal = 0
        for _ in range(150):
            p = random_problem(rng, with_fixings=True)
            expected = lp_vertex_optimum(p.rows, p.rhs, p.lb, p.ub)
            plain = solve_lp(p)
            top = 3.0 if expected is None else expected
            for cutoff in (-0.5, 0.25 * top, 0.5 * top, top - 0.5, top - 1e-3, top + 0.5):
                r = solve_lp(p, cutoff=cutoff)
                if r.status == CUTOFF:
                    assert r.objective > cutoff
                    assert r.point is None and r.basis is None
                    assert 0 < r.iterations <= plain.iterations
                    if expected is not None:
                        assert expected >= r.objective - 1e-9
                    cut_off += 1
                    continue
                assert (r.status, r.iterations) == (plain.status, plain.iterations)
                if r.status == OPTIMAL:
                    assert r.objective == plain.objective
                    assert (r.point.values == plain.point.values).all()
                    assert r.basis == plain.basis
                    optimal += 1
        assert cut_off >= 100 and optimal >= 100

    def test_a_cutoff_at_or_above_the_optimum_never_fires(self):
        rng = np.random.default_rng(43)
        checked = 0
        for _ in range(80):
            p = random_problem(rng)
            plain = solve_lp(p)
            if plain.status != OPTIMAL:
                continue
            r = solve_lp(p, cutoff=plain.objective)
            assert (r.status, r.iterations) == (OPTIMAL, plain.iterations)
            assert (r.point.values == plain.point.values).all()
            checked += 1
        assert checked >= 40


class TestDeadline:
    def test_clock_is_read_every_clock_every_pivots(self, monkeypatch):
        rng = np.random.default_rng(2)
        p = LpProblem((rng.random((120, 60)) < 0.08).astype(float), np.ones(120),
                      np.zeros(60), np.ones(60))
        plain = solve_lp(p)
        assert plain.status == OPTIMAL and plain.iterations > 2 * CLOCK_EVERY
        reads = []

        def perf_counter():
            reads.append(len(reads))
            return float(len(reads))

        monkeypatch.setattr(fillin.lp, "time", SimpleNamespace(perf_counter=perf_counter))
        # reads 1 and 2 are within the deadline, read 3 (at pivot 64) is past it
        r = solve_lp(p, deadline=2.5)
        assert (r.status, r.iterations, len(reads)) == (ITERATION_LIMIT, 2 * CLOCK_EVERY, 3)
        reads.clear()
        r = solve_lp(p, deadline=1e9)
        assert (r.status, r.iterations) == (OPTIMAL, plain.iterations)
        assert len(reads) == 1 + plain.iterations // CLOCK_EVERY


class TestRatioTest:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_entering_equals_the_sorting_ratio_test(self, data):
        # few distinct values, so that ratios and pivot sizes tie often
        n = data.draw(st.integers(1, 12))

        def vec(values):
            return np.array(data.draw(st.lists(st.sampled_from(values), min_size=n,
                                               max_size=n)), dtype=float)

        lp = SimpleNamespace(step=vec([-1.0, 0.0, 1.0]), d=vec([0.0, 0.5, 1.0, 2.0, -1e-10]),
                             span=vec([0.0, 0.5, 1.0, np.inf]))
        g = vec([-2.0, -1.0, -0.5, 0.0, 1e-10, 0.5, 1.0, 2.0, 4.0])
        sgn = data.draw(st.sampled_from([-1.0, 1.0]))
        violation = data.draw(st.sampled_from([1e-10, 0.25, 0.5, 1.0, 1.5, 3.0, 10.0]))
        bland = data.draw(st.booleans())
        got = _DualSimplex.entering(lp, g.copy(), sgn, violation, bland)
        want = reference_entering(lp, g.copy(), sgn, violation, bland)

        def passed(res):
            return [] if res[2] is None else res[2].tolist()

        assert got[:2] == want[:2]
        assert passed(got) == passed(want)


class TestBlandsRule:
    def test_every_pivot_under_blands_rule(self, monkeypatch):
        # stall counts from 0, so at STALL_LIMIT -1 every pivot takes Bland's rule
        monkeypatch.setattr(fillin.lp, "STALL_LIMIT", -1)
        calls = Counter()
        leaving = _DualSimplex.leaving

        def counting(self, bland):
            calls[bland] += 1
            return leaving(self, bland)

        monkeypatch.setattr(_DualSimplex, "leaving", counting)
        rng = np.random.default_rng(17)
        checked = infeasible = 0
        for _ in range(150):
            p = random_problem(rng, with_fixings=True)
            expected = lp_vertex_optimum(p.rows, p.rhs, p.lb, p.ub)
            r = solve_lp(p)
            if expected is None:
                assert r.status == INFEASIBLE
                assert_certifies_infeasibility(p, r)
                infeasible += 1
            else:
                assert r.status == OPTIMAL
                assert r.objective == pytest.approx(expected, abs=1e-7)
                checked += 1
        assert checked >= 60 and infeasible >= 3
        assert calls[True] > 0 and calls[False] == 0


class TestWarmBasis:
    """Re-solves from an earlier optimal basis, as the branch-and-cut does
    after a cut round (rows appended) and for a child (a variable fixed)."""

    @pytest.mark.parametrize("basis", [
        Basis((0,), (1,)),  # A[T, S] = [[0]] is singular
        Basis((0,), (4,)),  # tight row 4 has multiplier cost_0 / -1 < 0
        Basis((0, 1, 2, 3, 0), (0, 1, 2, 3, 4)),  # 5 > 4 columns: one repeats
    ])
    def test_refused_basis_restarts_as_the_cold_solve(self, basis):
        p = box_problem([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1],
                         [-1, 0, 1, 0]], [1, 1, 1, 1, -1])
        with pytest.raises(LpError):
            _DualSimplex(p).start(basis.cols, basis.rows)
        cold, warm = solve_lp(p), solve_lp(p, basis=basis)
        assert cold.iterations > 0
        assert (warm.status, warm.iterations, warm.basis) == (
            cold.status, cold.iterations, cold.basis)
        assert (warm.point.values == cold.point.values).all()

    def test_nonbasic_starts_at_the_bound_its_reduced_cost_favours(self):
        # x0 basic on the tight row: its multiplier is about 1, so x1's
        # reduced cost is about 1 - 3 < 0 and x1 starts at its upper bound,
        # where the point (0, 1) is already optimal
        r = solve_lp(box_problem([[1.0, 3.0]], [3.0]), basis=Basis((0,), (0,)))
        assert r.status == OPTIMAL and r.iterations == 0
        assert r.point.values == pytest.approx([0.0, 1.0])

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


def block(p, basis) -> np.ndarray:
    """A[T, S] of a basis: its tight rows and basic columns, in order."""
    return p.rows[list(basis.rows)][:, list(basis.cols)]


def disjoint_unit_problem(rng):
    """Rows with unit coefficients and pairwise disjoint supports (tight,
    the packing), then random rows as in random_problem; the packing and
    the problem."""
    nv = int(rng.integers(3, 9))
    order = rng.permutation(nv)
    cuts = np.sort(rng.choice(np.arange(1, nv), size=int(rng.integers(0, nv - 1)),
                              replace=False))
    supports = [s for s in np.split(order, cuts) if rng.random() < 0.8] or [order]
    rows, rhs = [], []
    for support in supports:
        row = np.zeros(nv)
        row[support] = 1.0
        rows.append(row)
        rhs.append(float(rng.integers(1, max(2, len(support)))))
    extra = random_problem(rng, num_vars=nv)
    p = LpProblem(np.vstack([rows, extra.rows]), np.append(rhs, extra.rhs), extra.lb,
                  extra.ub)
    return list(range(len(supports))), p


class TestStartFromAKnownInverse:
    """The two starts that skip an inversion: a packing basis, whose block is
    the identity, and a returned basis with the inverse its solve returned."""

    def test_packing_basis_starts_at_the_packing_bound(self):
        rng = np.random.default_rng(61)
        optimal = infeasible = 0
        for _ in range(200):
            packing, p = disjoint_unit_problem(rng)
            basis = packing_basis(p.rows, packing)
            assert basis.rows == tuple(packing)
            assert (block(p, basis) == np.eye(len(packing))).all()
            lp = _DualSimplex(p)
            lp.start(basis.cols, basis.rows)  # refused, it would raise
            assert (lp.d >= 0).all()  # every nonbasic at its lower bound
            assert lp.c[:lp.n] @ lp.z[:lp.n] == pytest.approx(p.rhs[packing].sum(), abs=1e-6)
            warm, cold = solve_lp(p, basis=basis), solve_lp(p)
            assert_same_solution(warm, cold)
            if cold.status == OPTIMAL:
                assert warm.point.values == pytest.approx(cold.point.values, abs=1e-9)
                optimal += 1
            else:
                assert_certifies_infeasibility(p, warm)
                infeasible += 1
        assert optimal >= 60 and infeasible >= 5

    @staticmethod
    def resolves(seed: int, count: int):
        """(problem, returned basis, its inverse) for re-solves after an
        appended row, as a cut round does, whose block is not the identity."""
        rng = np.random.default_rng(seed)
        found = []
        while len(found) < count:
            p = random_problem(rng, with_fixings=True)
            base = solve_lp(p)
            if base.status != OPTIMAL or not base.basis.cols:
                continue
            assert (base.inverse @ block(p, base.basis)
                    == pytest.approx(np.eye(len(base.basis.cols)), abs=1e-9))
            row = np.zeros(p.lb.size)
            row[rng.integers(0, p.lb.size)] = 1.0
            q = LpProblem(np.vstack([p.rows, row]), np.append(p.rhs, 1.0), p.lb, p.ub)
            found.append((q, base.basis, base.inverse))
        return found

    def test_returned_inverse_is_reused_and_left_unchanged(self):
        identity_blocks = 0
        for q, basis, inverse in self.resolves(62, 100):
            kept = inverse.copy()
            lp = _DualSimplex(q)
            lp.start(basis.cols, basis.rows, inverse)
            assert lp.Binv is not inverse and (lp.Binv == inverse).all()
            fresh = solve_lp(q, basis=basis)
            once = solve_lp(q, basis=basis, inverse=inverse)
            twice = solve_lp(q, basis=basis, inverse=inverse)
            assert (inverse == kept).all()  # pivots updated a copy
            assert_same_solution(once, fresh)
            if fresh.status == OPTIMAL:
                assert once.point.values == pytest.approx(fresh.point.values, abs=1e-9)
            assert (once.status, once.iterations, once.basis) == (
                twice.status, twice.iterations, twice.basis)
            if once.status == OPTIMAL:
                assert (once.point.values == twice.point.values).all()
                assert (once.inverse == twice.inverse).all()
            identity_blocks += (block(q, basis) == np.eye(len(basis.cols))).all()
        assert identity_blocks < 50

    def test_wrong_inverse_is_refused(self):
        checked = 0
        for q, basis, inverse in self.resolves(63, 100):
            M = block(q, basis)
            wrong = [inverse + 1e-6]
            if not (M == np.eye(len(M))).all():
                wrong.append(np.eye(len(M)))
            fresh = solve_lp(q, basis=basis)
            for bad in wrong:
                lp = _DualSimplex(q)
                lp.start(basis.cols, basis.rows, bad)
                assert not (lp.Binv == bad).all()
                assert np.abs(lp.Binv @ M - np.eye(len(M))).max() <= 1e-9
                r = solve_lp(q, basis=basis, inverse=bad)
                assert (r.status, r.iterations, r.basis) == (
                    fresh.status, fresh.iterations, fresh.basis)
                if r.status == OPTIMAL:
                    assert (r.point.values == fresh.point.values).all()
                checked += 1
        assert checked >= 150


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
