"""Self-contained LP solver for the relaxations: minimize the sum of all
variables subject to rows A x >= b and box bounds lb <= x <= ub in [0, 1].

The input is the dense row matrix A itself (the solver passes the active
rows of its cut pool as they are stored), with b, lb and ub as arrays.

The engine is a two-phase primal simplex on a bounded-variable tableau.
Nonbasic variables rest at either bound, entering variables may flip bounds
without a basis change, and Bland's rule is engaged after a stall to
guarantee termination.  Dense numpy arithmetic throughout; re-solves start
from scratch (optionally from a caller-supplied bound assignment, which
skips phase one whenever that assignment already satisfies every row).
Tolerances, the pivot cap and the refactorization interval are the fixed
module constants below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Point

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
ITERATION_LIMIT = "ITERATION_LIMIT"


class LpError(RuntimeError):
    """Internal solver failure (numerical breakdown, unbounded phase)."""


FEAS_TOL = 1e-7
PIVOT_TOL = 1e-9
REDUCED_COST_TOL = 1e-9
PIVOTS_PER_DIM = 50  # pivot cap: PIVOTS_PER_DIM * (rows + vars)
STALL_LIMIT = 100
REFACTOR_EVERY = 200


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


@dataclass
class LpResult:
    status: str
    objective: float
    point: Point | None
    iterations: int
    certificate: np.ndarray | None = None
    # at optimality: reduced costs of the structural variables and which of
    # them sit at their upper bound (for reduced-cost fixing by the caller)
    reduced_costs: np.ndarray | None = None
    at_upper: np.ndarray | None = None


class _Tableau:
    """Dense simplex state over columns [structural | surplus | artificial]."""

    def __init__(self, p: LpProblem, start: np.ndarray | None):
        A, b = p.rows, p.rhs
        m, nv = A.shape
        self.nv, self.m = nv, m
        self.b = b

        # Snap the starting assignment to a bound per variable.
        x0 = p.lb.copy() if start is None else np.clip(start, p.lb, p.ub)
        at_upper0 = np.abs(x0 - p.ub) < np.abs(x0 - p.lb)
        x0 = np.where(at_upper0, p.ub, p.lb)

        resid = b - A @ x0
        art_rows = [i for i in range(m) if resid[i] > 1e-12]
        na = len(art_rows)
        ncols = nv + m + na
        M = np.zeros((m, ncols))
        M[:, :nv] = A
        for i in range(m):
            M[i, nv + i] = -1.0
        for k, i in enumerate(art_rows):
            M[i, nv + m + k] = 1.0
        self.M = M
        self.lo = np.concatenate([p.lb, np.zeros(m), np.zeros(na)])
        self.hi = np.concatenate([p.ub, np.full(m, np.inf), np.full(na, np.inf)])
        self.is_art = np.zeros(ncols, dtype=bool)
        self.is_art[nv + m:] = True

        self.basis = np.empty(m, dtype=int)
        art_of_row = {i: nv + m + k for k, i in enumerate(art_rows)}
        for i in range(m):
            self.basis[i] = art_of_row.get(i, nv + i)
        self.in_basis = np.zeros(ncols, dtype=bool)
        self.in_basis[self.basis] = True
        self.at_upper = np.zeros(ncols, dtype=bool)
        self.at_upper[:nv] = at_upper0
        self.at_upper[self.basis] = False

        self.T = M.copy()
        for i in range(m):
            if not self.is_art[self.basis[i]]:  # surplus basic: column is -e_i
                self.T[i] = -M[i]
        self.xB = np.where(self.is_art[self.basis], resid, -resid)

        self.c1 = self.is_art.astype(float)
        self.c2 = np.zeros(ncols)
        self.c2[:nv] = 1.0
        self.z1 = self.c1 - self.c1[self.basis] @ self.T
        self.z2 = self.c2 - self.c2[self.basis] @ self.T

        self.iterations = 0
        self.stall = 0
        self.banned = np.zeros(ncols, dtype=bool)

    def nonbasic_value(self, j: int) -> float:
        return self.hi[j] if self.at_upper[j] else self.lo[j]

    def refactor(self):
        B = self.M[:, self.basis]
        Binv = np.linalg.inv(B)
        self.T = Binv @ self.M
        xn = np.where(self.at_upper, self.hi, self.lo)
        xn[self.in_basis] = 0.0
        self.xB = Binv @ (self.b - self.M @ xn)
        self.z1 = self.c1 - self.c1[self.basis] @ self.T
        self.z2 = self.c2 - self.c2[self.basis] @ self.T

    def _entering(self, z: np.ndarray, bland: bool):
        score = np.where(self.at_upper, z, -z)
        score[self.in_basis | self.banned] = -np.inf
        if bland:
            ok = np.flatnonzero(score > REDUCED_COST_TOL)
            return int(ok[0]) if ok.size else -1
        j = int(np.argmax(score))
        return j if score[j] > REDUCED_COST_TOL else -1

    def _ratio(self, j: int, direction: float, bland: bool, phase: int):
        col = self.T[:, j]
        g = direction * col
        blo = self.lo[self.basis]
        bhi = self.hi[self.basis]
        lims = np.full(self.m, np.inf)
        dec = g > PIVOT_TOL
        lims[dec] = (self.xB[dec] - blo[dec]) / g[dec]
        inc = (g < -PIVOT_TOL) & np.isfinite(bhi)
        lims[inc] = (bhi[inc] - self.xB[inc]) / (-g[inc])
        np.maximum(lims, 0.0, out=lims)
        limit = self.hi[j] - self.lo[j]
        best = float(lims.min()) if self.m else np.inf
        if best >= limit - 1e-10:
            return limit, -1, False  # the entering variable flips bounds
        ties = np.flatnonzero(lims < best + 1e-10)
        if bland:
            leave = int(min(ties, key=lambda i: self.basis[i]))
        else:
            # favour kicking artificials out, then the stablest pivot
            def rank(i):
                return (
                    0 if (phase == 1 and self.is_art[self.basis[i]]) else 1,
                    -abs(col[i]),
                    self.basis[i],
                )
            leave = int(min(ties, key=rank))
        return float(lims[leave]), leave, bool(inc[leave])

    def _pivot(self, i: int, j: int):
        piv = self.T[i, j]
        if abs(piv) < PIVOT_TOL:
            raise LpError("pivot element below tolerance")
        row = self.T[i] / piv
        colv = self.T[:, j].copy()
        colv[i] = 0.0
        self.T -= np.outer(colv, row)
        self.T[i] = row
        self.z1 = self.z1 - self.z1[j] * row
        self.z2 = self.z2 - self.z2[j] * row

    def step(self, phase: int, bland: bool) -> bool:
        """One simplex iteration; returns False when the phase is optimal."""
        z = self.z1 if phase == 1 else self.z2
        j = self._entering(z, bland)
        if j < 0:
            return False
        direction = -1.0 if self.at_upper[j] else 1.0
        delta, leave, leave_up = self._ratio(j, direction, bland, phase)
        if not np.isfinite(delta):
            raise LpError("unbounded direction in simplex phase %d" % phase)
        self.iterations += 1
        self.stall = self.stall + 1 if delta < 1e-11 else 0
        if leave < 0:
            # bound flip, no basis change
            self.xB -= direction * delta * self.T[:, j]
            self.at_upper[j] = not self.at_upper[j]
            return True
        enter_val = self.nonbasic_value(j) + direction * delta
        self.xB -= direction * delta * self.T[:, j]
        old = self.basis[leave]
        self._pivot(leave, j)
        self.basis[leave] = j
        self.in_basis[old] = False
        self.in_basis[j] = True
        self.at_upper[old] = leave_up
        self.at_upper[j] = False
        self.xB[leave] = enter_val
        if self.is_art[old]:
            self.banned[old] = True  # artificials never re-enter
        return True

    def phase1_value(self) -> float:
        return float(sum(self.xB[i] for i in range(self.m)
                         if self.is_art[self.basis[i]]))

    def drive_out_artificials(self):
        nreal = self.nv + self.m
        for i in range(self.m):
            if not self.is_art[self.basis[i]]:
                continue
            usable = (~self.in_basis[:nreal]) & (np.abs(self.T[i, :nreal]) > 1e-7)
            js = np.flatnonzero(usable)
            if js.size:
                j = int(js[0])
                old = self.basis[i]
                # degenerate swap: j enters at its current bound value
                enter_val = self.nonbasic_value(j)
                self._pivot(i, j)
                self.basis[i] = j
                self.in_basis[old] = False
                self.in_basis[j] = True
                self.at_upper[j] = False
                self.xB[i] = enter_val
                self.banned[old] = True
        # any artificial still basic stays pinned at zero
        self.hi[self.is_art] = 0.0
        self.banned |= self.is_art & ~self.in_basis

    def structural_point(self) -> np.ndarray:
        x = np.where(self.at_upper[: self.nv], self.hi[: self.nv], self.lo[: self.nv])
        for i in range(self.m):
            if self.basis[i] < self.nv:
                x[self.basis[i]] = self.xB[i]
        return x

    def row_multipliers(self, costs: np.ndarray) -> np.ndarray:
        # Columns nv..nv+m of T hold -B^{-1}, so y = c_B B^{-1} reads off it.
        return -(costs[self.basis] @ self.T[:, self.nv:self.nv + self.m])


def solve_lp(p: LpProblem, start: np.ndarray | None = None) -> LpResult:
    """Solve the bounded relaxation; deterministic for identical input.

    start, if given, is snapped per-variable to the nearest bound and used
    as the initial nonbasic assignment.

    Returns OPTIMAL with a vertex point, INFEASIBLE with row multipliers
    certifying the conflict, or ITERATION_LIMIT after the pivot cap.
    """
    m, nv = p.rows.shape
    if nv == 0:
        return LpResult(OPTIMAL, 0.0, Point(np.zeros(0)), 0)
    if m == 0:
        x = p.lb.copy()
        return LpResult(OPTIMAL, float(x.sum()), Point(x), 0)

    tab = _Tableau(p, start)
    max_iters = PIVOTS_PER_DIM * (m + nv)

    for phase in (1, 2):
        if phase == 1 and not tab.is_art.any():
            continue
        if phase == 2 and tab.is_art.any():
            if tab.phase1_value() > FEAS_TOL:
                y = tab.row_multipliers(tab.c1)
                return LpResult(INFEASIBLE, float("nan"), None,
                                tab.iterations, certificate=y)
            tab.drive_out_artificials()
        since_refactor = 0
        while True:
            if tab.iterations >= max_iters:
                return LpResult(ITERATION_LIMIT, float("nan"), None, tab.iterations)
            bland = tab.stall > STALL_LIMIT
            if not tab.step(phase, bland):
                break
            since_refactor += 1
            if since_refactor >= REFACTOR_EVERY:
                tab.refactor()
                since_refactor = 0
        if phase == 1 and tab.phase1_value() > FEAS_TOL:
            y = tab.row_multipliers(tab.c1)
            return LpResult(INFEASIBLE, float("nan"), None,
                            tab.iterations, certificate=y)

    x = tab.structural_point()
    # final consistency check; refactor once if drift is detected
    if _max_row_violation(p, x) > FEAS_TOL:
        tab.refactor()
        while tab.step(2, bland=True):
            if tab.iterations >= max_iters:
                return LpResult(ITERATION_LIMIT, float("nan"), None, tab.iterations)
        x = tab.structural_point()
        if _max_row_violation(p, x) > 10 * FEAS_TOL:
            raise LpError("simplex returned an infeasible point")
    x = np.clip(x, p.lb, p.ub)
    return LpResult(
        OPTIMAL, float(x.sum()), Point(x), tab.iterations,
        reduced_costs=tab.z2[:nv].copy(),
        at_upper=tab.at_upper[:nv] & ~tab.in_basis[:nv],
    )


def _max_row_violation(p: LpProblem, x: np.ndarray) -> float:
    return max(float(np.max(p.rhs - p.rows @ x)), 0.0)
