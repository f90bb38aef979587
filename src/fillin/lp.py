"""LP relaxations: minimize sum(x) subject to rows A x >= b and box bounds
lb <= x <= ub inside [0, 1].

The input is the dense row matrix A itself (the solver passes the active
rows of its cut pool as they are stored), with b, lb and ub as arrays.

The engine is a bounded dual simplex over the columns [A | -I]: one
structural column per variable and one surplus column s_i = A_i x - b_i >= 0
per row.  A basis is a set S of basic structurals together with an equally
large set T of tight rows, the rows whose surplus is nonbasic at zero; the
surplus of every other row is basic.  Only the k x k block A[T, S] is ever
factored, and its inverse is kept up to date pivot by pivot, so the work of
a pivot grows with the number of basic structurals, not with the number of
rows.

There are no artificial columns and no phase one.  A solve starts from one
of three dual-feasible bases:

- the slack basis (S and T empty, every structural at its lower bound),
  dual feasible because every cost is positive;
- a packing basis (packing_basis): tight rows with unit coefficients and
  pairwise disjoint supports, each with its cheapest variable basic, so
  A[T, S] is the identity and the solve starts at the rows' packing bound;
- a basis returned by an earlier solve, after rows are appended (their
  surplus enters the basis) or bounds are changed (a boxed nonbasic whose
  reduced cost has the wrong sign moves to its other bound).

A start may be given the inverse of its A[T, S] as well, as a solve
returns it with its basis (LpResult.inverse).  The start copies it, since
pivots update the inverse in place, once it passes the test a fresh
inverse must pass, |Binv M - I| <= 1e-9; an inverse that fails it is
dropped and A[T, S] is inverted afresh.  A supplied basis that is singular,
or whose tight rows carry a negative multiplier, is replaced by the slack
basis.

Each pivot removes the largest primal violation.  Its ratio test takes
long steps: a bounded candidate that cannot close the violation on its own
flips to its other bound and the next one is tried.  A violation that
every candidate together cannot close proves the LP infeasible, and the
multipliers of the violated row are returned as a nonnegative Farkas
certificate.  Bland's rule (short steps, smallest indices) takes over after
a run of degenerate pivots to guarantee termination.

Dual degeneracy is broken by a fixed cost perturbation: variable j costs
1 - eps_j with eps_j in [1e-9, 2e-9] (scaled down on LPs with more than 250
variables, so that eps_max * n <= 5e-7 always).  The reported objective is
still sum(x) at the returned vertex x, which is optimal for the perturbed
costs.  If z* is the unperturbed optimum, attained at x*, then
sum(x) - eps.x <= sum(x*) - eps.x* <= z*, hence

    z* <= sum(x) <= z* + eps_max * sum(x) <= z* + 5e-7.

The objective overestimates the LP bound by less than solver.BOUND_TOL =
1e-6, which the solver subtracts before rounding a bound up, so every node
bound stays valid.

A solve may stop early at a cutoff.  Every basis the dual simplex visits is
dual feasible for the perturbed costs c, so c.z at its basic point z (out
of bounds until the last pivot) is the objective of a feasible dual
solution.  By weak duality c.z <= min c.x over the LP's feasible points,
and min c.x <= z* = min sum(x) because every c_j < 1 and x >= 0.  This dual
bound does not decrease from pivot to pivot.  Once a pivot lifts it above
the cutoff, the LP optimum lies above it too, and the solve returns CUTOFF
with c.z as its objective and no point or basis; an infeasible LP may end
this way as well.  The solver passes the largest bound that cannot prune
its node, so a pruned LP no longer runs to its optimum.

Tolerances, the pivot cap, the refactorization interval and the pivots
between deadline checks are the fixed module constants below.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import Point

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
ITERATION_LIMIT = "ITERATION_LIMIT"
CUTOFF = "CUTOFF"


class LpError(RuntimeError):
    """Internal solver failure (numerical breakdown)."""


FEAS_TOL = 1e-9  # primal violation the simplex removes
PIVOT_TOL = 1e-9  # smallest |tableau entry| that may enter the basis
REDUCED_COST_TOL = 1e-9  # dual infeasibility tolerated in a supplied basis
PIVOTS_PER_DIM = 50  # pivot cap: PIVOTS_PER_DIM * (rows + vars)
STALL_LIMIT = 100  # degenerate pivots in a row before Bland's rule
REFACTOR_EVERY = 100  # pivots between fresh inversions of A[T, S]
PERTURBATION = 1e-9  # cost perturbation scale, see the module docstring
CLOCK_EVERY = 32  # pivots between deadline checks


@dataclass
class LpProblem:
    """Minimize sum(x) over 0 <= lb <= x <= ub <= 1 and rows @ x >= rhs.

    rows is an m x n matrix, rhs has length m, lb and ub have length n.
    """

    rows: np.ndarray
    rhs: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.lb = np.asarray(self.lb, dtype=float)
        self.ub = np.asarray(self.ub, dtype=float)
        m, n = self.rows.shape[:1], self.rows.shape[1:]
        if self.rows.ndim != 2 or (self.rhs.shape, self.lb.shape, self.ub.shape) != (m, n, n):
            raise ValueError(
                f"shapes do not fit: rows {self.rows.shape}, rhs {self.rhs.shape}, "
                f"lb {self.lb.shape}, ub {self.ub.shape}"
            )
        if np.any(self.lb > self.ub + 1e-12):
            raise ValueError("lower bound exceeds upper bound")


@dataclass(frozen=True)
class Basis:
    """A simplex basis: the basic structural variables (cols) and the rows
    whose surplus is nonbasic (rows), equally many of each."""

    cols: tuple[int, ...]
    rows: tuple[int, ...]


@dataclass
class LpResult:
    status: str
    objective: float
    point: Point | None
    iterations: int
    certificate: np.ndarray | None = None
    basis: Basis | None = None  # at optimality, to warm-start a re-solve
    inverse: np.ndarray | None = None  # at optimality, the inverse of A[T, S]


@lru_cache(maxsize=128)
def _costs(nv: int) -> np.ndarray:
    """Perturbed costs 1 - eps_j, eps_j spread over [1, 2] * scale by the
    golden-ratio sequence so that no two variables cost the same.  The
    array is shared between calls, so it is read-only."""
    scale = min(PERTURBATION, 2.5e-7 / max(nv, 1))
    c = 1.0 - scale * (1.0 + (np.arange(nv) * 0.6180339887498949) % 1.0)
    c.flags.writeable = False
    return c


def packing_basis(rows: np.ndarray, tight) -> Basis:
    """The basis whose tight rows are `tight` (indices into rows) and whose
    basic column in each is the row's cheapest variable under the perturbed
    costs.  On rows with unit coefficients and pairwise disjoint supports
    A[T, S] is the identity, each multiplier y_i = c_j is positive and every
    reduced cost is at least zero (c_j is the least cost in its row): the
    basis is dual feasible, and its dual bound is about the sum of the rows'
    right-hand sides."""
    c = _costs(rows.shape[1])
    cols = []
    for i in tight:
        support = np.flatnonzero(rows[i])
        cols.append(int(support[c[support].argmin()]))
    return Basis(tuple(cols), tuple(int(i) for i in tight))


def _inverts(Binv: np.ndarray, M: np.ndarray) -> bool:
    """True if Binv @ M is the identity within 1e-9 in every entry."""
    return not len(M) or bool(np.abs(Binv @ M - np.eye(len(M))).max() <= 1e-9)


class _DualSimplex:
    """Dual simplex state.  Vectors of length n + m cover the n structural
    columns and then the m surplus columns: z holds the values, d the
    reduced costs (on the surplus of a tight row: the row's multiplier),
    lo and hi the bounds, and step the way a nonbasic may move (+1 up from
    its lower bound, -1 down from its upper bound, 0 if basic or fixed).
    S and T list the basic structurals and the tight rows in the order of
    the columns and rows of A[T, S], whose inverse is Binv.

    The constructor holds the problem only; start installs every basis,
    the slack basis included as start((), ())."""

    def __init__(self, p: LpProblem):
        self.A, self.b = p.rows, p.rhs
        m, n = p.rows.shape
        self.n = n
        self.lo = np.zeros(n + m)
        self.lo[:n] = p.lb
        self.hi = np.full(n + m, np.inf)
        self.hi[:n] = p.ub
        self.span = self.hi - self.lo
        self.c = np.zeros(n + m)
        self.c[:n] = _costs(n)
        self.iterations = 0
        self.since_factor = 0
        # Sa, Ta, nTa and AT are the leading rows of these buffers (a basis
        # has at most min(m, n) members); a basis change edits them in place
        k = min(m, n)
        self._Sa = np.empty(k, dtype=int)
        self._Ta = np.empty(k, dtype=int)
        self._nTa = np.empty(k, dtype=int)
        self._AT = np.empty((k, n))
        self._below = np.empty(n + m)  # leaving's work arrays
        self._above = np.empty(n + m)

    def _views(self) -> None:
        k = len(self.S)
        self.Sa, self.Ta = self._Sa[:k], self._Ta[:k]
        self.nTa, self.AT = self._nTa[:k], self._AT[:k]

    def start(self, cols, rows, inverse: np.ndarray | None = None) -> None:
        """Install a basis, replacing all state that depends on the one
        before; each nonbasic structural goes to the bound its reduced cost
        favours.  With cols and rows empty this is the slack basis: every
        surplus basic, every structural at its lower bound, where its
        positive cost keeps it.  inverse, if given, is taken for the inverse
        of A[T, S] (a copy: pivots update it in place) when it passes the
        test a fresh inverse must pass; otherwise A[T, S] is inverted
        afresh.  Raises LpError if A[T, S] is singular or a tight row's
        multiplier is negative."""
        n = self.n
        self.S = [int(j) for j in cols]
        self.T = [int(i) for i in rows]
        k = len(self.S)
        if k > len(self._Sa):
            raise LpError("singular basis")  # it repeats a column or a row
        self._Sa[:k] = self.S
        self._Ta[:k] = self.T
        self._views()
        self.nTa[:] = n + self.Ta
        self.AT[:] = self.A[self.Ta]
        self.factor(check=True, inverse=inverse)
        if (self.d[self.nTa] < -REDUCED_COST_TOL).any():
            raise LpError("basis is not dual feasible")
        self.step = np.zeros(len(self.c))
        self.step[:n] = np.where(self.d[:n] < 0, -1.0, 1.0)
        self.step[self.span <= 0] = 0.0
        self.step[self.Sa] = 0.0
        self.step[self.nTa] = 1.0
        self.z = np.empty(len(self.c))
        self.primals()

    def factor(self, check: bool = False, inverse: np.ndarray | None = None) -> None:
        """Invert A[T, S] afresh, or copy inverse if it inverts A[T, S]
        within the tolerance that check sets for a fresh inverse, and
        recompute the reduced costs."""
        M = self.AT[:, self.Sa]
        if inverse is not None and inverse.shape == M.shape and _inverts(inverse, M):
            Binv = inverse.copy()
        else:
            try:
                Binv = np.linalg.inv(M) if len(M) else np.zeros((0, 0))
            except np.linalg.LinAlgError as exc:
                raise LpError("singular basis") from exc
            if check and not _inverts(Binv, M):
                raise LpError("ill-conditioned basis")
        self.Binv = Binv
        self.since_factor = 0
        y = self.c[self.Sa] @ Binv
        d = self.c.copy()
        d[:self.n] -= y @ self.AT
        d[self.Sa] = 0.0
        d[self.nTa] = y
        self.d = d

    def primals(self) -> None:
        """Values of the basic variables from the nonbasic ones."""
        n = self.n
        x = np.where(self.step[:n] < 0, self.hi[:n], self.lo[:n])
        x[self.Sa] = 0.0
        x[self.Sa] = self.Binv @ (self.b[self.Ta] - self.AT @ x)
        self.z[:n] = x
        self.z[n:] = self.A @ x - self.b
        self.z[self.nTa] = 0.0

    def refresh(self) -> bool:
        """Refactor if any pivot ran since the last inversion; True if so."""
        if not self.since_factor:
            return False
        self.factor()
        self.primals()
        return True

    def leaving(self, bland: bool) -> tuple[int, float]:
        """The basic variable to leave and its violation: the most violated
        one (the first violated one under Bland's rule), or (-1, 0)."""
        infeas = np.subtract(self.lo, self.z, out=self._below)
        np.maximum(infeas, np.subtract(self.z, self.hi, out=self._above), out=infeas)
        if bland:
            hits = (infeas > FEAS_TOL).nonzero()[0]
            j = int(hits[0]) if hits.size else -1
        else:
            j = int(infeas.argmax()) if infeas.size else -1  # no rows, no variables
        return (j, float(infeas[j])) if j >= 0 and infeas[j] > FEAS_TOL else (-1, 0.0)

    def tableau_row(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """g[v] = rate at which basic variable j changes as nonbasic v moves
        up (zero on the other basic variables, -1 on j itself), and its
        part gT on the surpluses of the tight rows."""
        n = self.n
        g = np.zeros(len(self.z))
        if j < n:
            gT = self.Binv[self.S.index(j)].copy()
            g[:n] = -(gT @ self.AT)
        else:
            gT = self.A[j - n, self.Sa] @ self.Binv
            g[:n] = self.A[j - n] - gT @ self.AT
        g[self.nTa] = gT
        g[self.Sa] = 0.0
        g[j] = -1.0
        return g, gT

    def entering(self, g: np.ndarray, sgn: float, violation: float, bland: bool):
        """Dual ratio test for a leaving variable that must move by
        `violation` (sgn +1: up).  The candidates are the nonbasics whose
        allowed move pushes it that way, ordered by the dual step at which
        their reduced cost reaches zero (larger pivots first on ties).
        Bounded ones that cannot close the violation on their own are
        passed: they flip to their other bound.  Returns (entering
        variable, dual step, passed variables), or (-1, 0, None) when all
        of them together cannot close it.  Under Bland's rule none is
        passed and ties go to the smallest index."""
        t = g * self.step
        if sgn < 0:
            np.negative(t, out=t)
        cand = (t > PIVOT_TOL).nonzero()[0]
        if not cand.size:
            return -1, 0.0, None
        tc = t[cand]
        ratios = self.d[cand] * self.step[cand] / tc
        if bland:
            theta = float(ratios.min())
            return int(cand[(ratios <= theta + 1e-12).nonzero()[0][0]]), theta, None
        # the first candidate in (ratio, -tc, index) order usually closes the
        # violation alone; only when it does not are all of them sorted
        ties = (ratios == ratios.min()).nonzero()[0]
        first = int(ties[tc[ties].argmax()])
        if tc[first] * self.span[cand[first]] >= violation - FEAS_TOL:
            return int(cand[first]), float(ratios[first]), None
        order = np.lexsort((-tc, ratios))
        reach = np.cumsum(tc[order] * self.span[cand[order]])
        k = int(reach.searchsorted(violation - FEAS_TOL))
        if k == len(reach):
            return -1, 0.0, None
        return int(cand[order[k]]), float(ratios[order[k]]), cand[order[:k]]

    def flip(self, F: np.ndarray) -> None:
        """Move nonbasic structurals F to their other bound."""
        n = self.n
        dx = np.zeros(n)
        dx[F] = self.span[F] * self.step[F]
        self.step[F] *= -1.0
        dx[self.Sa] = -(self.Binv @ (self.AT @ dx))
        self.z[:n] += dx
        self.z[n:] += self.A @ dx

    def pivot(self, j: int, q: int, g: np.ndarray, gT: np.ndarray, sgn: float) -> None:
        """Basic j leaves at its violated bound and nonbasic q enters."""
        n, A, Binv = self.n, self.A, self.Binv
        self.d -= (self.d[q] / g[q]) * g
        self.d[q] = 0.0
        target = self.lo[j] if sgn > 0 else self.hi[j]
        delta = (target - self.z[j]) / g[q]
        dx = np.zeros(n)
        if q < n:
            v = Binv @ self.AT[:, q]  # column of q in A[T, S] terms
            dx[self.Sa] = v * -delta
            dx[q] = delta
        else:
            t = self.T.index(q - n)
            dx[self.Sa] = Binv[:, t] * delta
        self.z[:n] += dx
        self.z[n:] += A @ dx
        self.z[j] = target
        self.step[q] = 0.0
        self.step[j] = sgn if self.span[j] > 0 else 0.0

        S, T = self.S, self.T
        if j < n and q < n:
            # column pos of A[T, S] becomes that of q
            pos = S.index(j)
            rowp = Binv[pos] / v[pos]
            Binv -= v[:, None] * rowp
            Binv[pos] += rowp
            S[pos] = q
            self.Sa[pos] = q
        elif j < n:
            # column pos and row t leave A[T, S]
            pos = S.index(j)
            colt = Binv[:, t] / Binv[pos, t]
            Binv -= colt[:, None] * Binv[pos]
            self.Binv = Binv[np.arange(len(S)) != pos][:, np.arange(len(T)) != t]
            del S[pos], T[t]
            k = len(S)
            self._Sa[pos:k] = self._Sa[pos + 1:k + 1]
            for buf in (self._Ta, self._nTa, self._AT):
                buf[t:k] = buf[t + 1:k + 1]
            self._views()
        elif q < n:
            # A[T, S] grows by column q and row j - n
            sigma = g[q]
            k = len(S)
            grown = np.empty((k + 1, k + 1))
            grown[:k, :k] = Binv + v[:, None] * (gT / sigma)
            grown[:k, k] = v / -sigma
            grown[k, :k] = gT / -sigma
            grown[k, k] = 1.0 / sigma
            self.Binv = grown
            S.append(q)
            T.append(j - n)
            self._Sa[k], self._Ta[k], self._nTa[k] = q, j - n, j
            self._AT[k] = A[j - n]
            self._views()
        else:
            # row t of A[T, S] becomes row j - n
            colt = Binv[:, t] / gT[t]
            Binv -= colt[:, None] * gT
            Binv[:, t] += colt
            T[t] = j - n
            self.Ta[t] = j - n
            self.nTa[t] = j
            self.AT[t] = A[j - n]
        self.iterations += 1
        self.since_factor += 1
        if self.since_factor >= REFACTOR_EVERY:
            self.refresh()


def solve_lp(p: LpProblem, basis: Basis | None = None, cutoff: float = math.inf,
             deadline: float | None = None, inverse: np.ndarray | None = None) -> LpResult:
    """Solve the bounded relaxation; deterministic for identical input.

    basis, if given, is where the dual simplex starts: a basis an earlier
    solve returned, or a packing basis (its rows index p.rows).  inverse, if
    given, is the inverse of the basis's block A[T, S], as an earlier solve
    returned it with that basis over the same rows; it spares the start an
    inversion when it passes the start's check.  _DualSimplex.start installs
    the basis, or the slack basis when there is none or start refuses it
    (singular or not dual feasible).

    Returns OPTIMAL with a vertex point, its objective, its basis and the
    inverse of its A[T, S];
    INFEASIBLE with nonnegative row multipliers y certifying the conflict
    (no x in the box has y @ rows @ x >= y @ rhs); CUTOFF as soon as a pivot
    lifts the dual bound above cutoff, with that bound as its objective and
    no point or basis (see the module docstring); or ITERATION_LIMIT after
    the pivot cap, or when the clock, read before the first pivot and every
    CLOCK_EVERY pivots after it, is past deadline (a time.perf_counter()
    value).  With the default cutoff and no
    deadline the pivots are the same as without them.
    """
    m, nv = p.rows.shape
    if basis is not None and (
        len(basis.cols) != len(basis.rows)
        or not all(0 <= j < nv for j in basis.cols)
        or not all(0 <= i < m for i in basis.rows)
    ):
        raise ValueError(f"basis does not fit a {m} x {nv} problem: {basis}")
    cols, rows = (basis.cols, basis.rows) if basis is not None else ((), ())
    lp = _DualSimplex(p)
    try:
        lp.start(cols, rows, inverse)
    except LpError:
        lp.start((), ())  # back to the slack basis
    max_iters = PIVOTS_PER_DIM * (m + nv)
    stall = 0
    while True:
        bland = stall > STALL_LIMIT
        j, violation = lp.leaving(bland)
        if j < 0:
            x = np.minimum(np.maximum(lp.z[:nv], p.lb), p.ub)
            if not m or (p.rhs - p.rows @ x).max() <= 100 * FEAS_TOL:
                break
            if not lp.refresh():
                raise LpError("simplex returned an infeasible point")
            continue
        if lp.iterations >= max_iters or (
                deadline is not None and not lp.iterations % CLOCK_EVERY
                and time.perf_counter() > deadline):
            return LpResult(ITERATION_LIMIT, float("nan"), None, lp.iterations)
        g, gT = lp.tableau_row(j)
        sgn = 1.0 if lp.z[j] < lp.lo[j] else -1.0
        q, theta, passed = lp.entering(g, sgn, violation, bland)
        if q < 0:
            if lp.refresh():
                continue
            # row j - n (or the rows that pin structural j) cannot be met:
            # its multipliers, signed toward the violation, certify it
            y = np.maximum(-sgn * g[nv:], 0.0)
            return LpResult(INFEASIBLE, float("nan"), None, lp.iterations, certificate=y)
        if passed is not None and passed.size:
            lp.flip(passed)
        stall = stall + 1 if theta < 1e-12 else 0
        lp.pivot(j, q, g, gT, sgn)
        if cutoff < math.inf:
            dual_bound = float(lp.c[:nv] @ lp.z[:nv])
            if dual_bound > cutoff:
                return LpResult(CUTOFF, dual_bound, None, lp.iterations)

    return LpResult(
        OPTIMAL, float(x.sum()), Point(x), lp.iterations,
        basis=Basis(tuple(lp.S), tuple(lp.T)), inverse=lp.Binv,
    )
