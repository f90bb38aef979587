"""Branch-and-cut driver: LP relaxations over a growing global cut pool,
lazy cuts at integer points, threshold (and optional exact I2) separation
at fractional points, and the minimum-degree primal heuristics for
incumbents (the better of the static and dynamic orders at the root).

A node runs one kind of cut round, at integer and fractional points alike.
The round solves the LP, re-activates pooled rows the point violates (and
re-solves if there were any), picks cuts, and adds them to the pool; the
node branches once a round adds no new cut or after MAX_ROUNDS_PER_NODE
rounds.  The cuts picked depend on the point.  At an integer point they
come from integer separation: if there are none the point is a chordal
completion, offered as the incumbent, and the node is done; otherwise the
point's repair (primal_repair) is offered.  At a fractional point they come
from threshold separation at each of THRESHOLDS in turn while nothing is
found, then from exact I2 if enabled and still nothing is found.
Integer separation is threshold separation of the integral point, so every
call but exact I2 scans chordless cycles until it holds
separation.MAX_CUTS_PER_CALL violated cuts or runs out of cycles.

Best-bound node selection; branching fixes the most fractional variable to
0 and 1.  All cuts are globally valid, so the pool is shared by every node
and never shrinks.  Objective values are sums of binaries, hence every node
bound is rounded up to an integer.

Each LP gets the incumbent's cutoff ub - 1 + BOUND_TOL: the largest LP bound
that still rounds up below ub.  An LP whose dual bound passes it stops
there (lp.CUTOFF) and the node is pruned at once, as an infeasible one is:
it no longer refreshes the active set or re-solves, and no longer ages the
idle rows, before it is dropped.

Under a time limit the LP stops too once the deadline passes, and its node
goes back on the heap.  A node re-queues at the objective of the last LP it
solved, and the root is pushed at the packing bound of the root cuts, so
the lower bound a limited solve reports keeps what its LPs proved.

A node has one bound: the bound it was pushed with, replaced by the
objective of each LP it solves.  It prunes, branches and re-queues at it.
Those objectives do not fall from round to round or from parent to child,
beyond rounding and the cost perturbation (both far below BOUND_TOL): rows
are only added, or dropped while slack, and a child keeps its parent's
tight rows.

The LP basis is kept, not rebuilt: each cut round of a node re-solves from
the basis of the round before, and each child starts from its parent's
final basis.  A stored basis names its basic variables and the pool ids of
its tight rows (rows whose surplus is nonbasic); those rows are put back
into the LP before it is built, and every other row enters with its
surplus basic, so only the root LP starts from the slack basis.

Before any LP the root cuts may prove the incumbent optimal.  Harvested at
x = 0 from chordless cycles of G, each is a covering row with unit
coefficients.  On rows with pairwise disjoint supports y = 1 is a feasible
LP dual, so the sum of their right-hand sides bounds the optimum from below;
when it reaches a valid incumbent, the solve ends with no node, as it does
on chordal input.  The incumbent comes first, and the harvest stops at the
first cut after which this packing bound reaches it: a root that closes
builds only the cuts that close it, and one that does not gets the whole
harvest.
"""

from __future__ import annotations

import heapq
import logging
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .cuts import FAMILIES, Cut, evaluate
# is_chordal is not called here (mdo_completion tests the input), but it stays
# importable as fillin.solver.is_chordal: perfbench/layers.py traces the graphs
# layer through that name and reports the layer absent without it.
from .graphs import Graph, Point, is_chordal, is_valid_completion  # noqa: F401
from .heuristics import chordalize_with_order, mdo_completion, mdo_order, primal_repair
from .lp import CUTOFF, INFEASIBLE, ITERATION_LIMIT, Basis, LpProblem, solve_lp
from .separation import (
    VIOLATION_TOL,
    SeparationReport,
    iter_threshold_cuts,
    separate_i2_exact,
    separate_integer,
    separate_threshold,
)

logger = logging.getLogger(__name__)

OPTIMAL = "OPTIMAL"
FEASIBLE = "FEASIBLE"
TIME_LIMIT = "TIME_LIMIT"

MAX_ROUNDS_PER_NODE = 50  # separation rounds at one node before it branches
BOUND_TOL = 1e-6  # LP-bound slack before rounding up; lp.py keeps its error below
THRESHOLDS = (0.5, 0.25, 0.75)  # a fractional point's roundings, in order


@dataclass
class SolverConfig:
    families_enabled: tuple[str, ...] = FAMILIES
    exact_i2: bool = False
    time_limit_s: float | None = None
    node_limit: int | None = None

    def __post_init__(self):
        self.families_enabled = tuple(self.families_enabled)
        unknown = set(self.families_enabled) - set(FAMILIES)
        if unknown:
            raise ValueError(f"unknown cut families {sorted(unknown)}")
        if "I1" not in self.families_enabled:
            raise ValueError("family I1 must stay enabled: it certifies optimality")
        if self.exact_i2 and "I2" not in self.families_enabled:
            raise ValueError("exact_i2 separates family I2, which is not enabled")
        if self.time_limit_s is not None and (
                isinstance(self.time_limit_s, bool)
                or not isinstance(self.time_limit_s, numbers.Real)
                or not self.time_limit_s >= 0):
            raise ValueError(
                f"time_limit_s must be a number >= 0, got {self.time_limit_s!r}")
        if self.node_limit is not None and (
                type(self.node_limit) is not int or self.node_limit < 0):
            raise ValueError(f"node_limit must be an int >= 0, got {self.node_limit!r}")


@dataclass
class SolveResult:
    status: str
    best_fill: frozenset[int]
    lower_bound: int
    upper_bound: int
    nodes: int
    cuts_by_family: dict[str, int]
    total_cuts: int
    wall_time_s: float


def root_initialize(g: Graph, cfg: SolverConfig | None = None):
    """Initial incumbent and initial cut pool (lazy cuts harvested from the
    chordless cycles of the bare graph); no fill and no cuts when g is
    chordal.  The incumbent is the smaller of the static and the dynamic
    minimum-degree completions, the static one on a tie.

    The harvest is integer separation at x = 0, stopped at the first cut
    after which the packing bound of the cuts so far reaches the incumbent's
    size: those cuts prove it optimal, and solve needs no more.  A harvest
    that never gets there is the whole report.
    """
    if cfg is None:
        cfg = SolverConfig()
    incumbent = mdo_completion(g)
    if not incumbent:
        return incumbent, []  # g is chordal
    incumbent = min(incumbent, chordalize_with_order(g, mdo_order(g, dynamic=True)),
                    key=len)
    report = SeparationReport()
    harvest = iter_threshold_cuts(g, Point.zeros(g), 0.5, cfg.families_enabled, report)
    for bound in _packing_bounds(harvest):
        if bound >= len(incumbent):
            break
    return incumbent, list(report.cuts)


class _Search:
    """Global search state: cut pool, LP active set, incumbent, node heap.

    The pool keeps every cut ever found (they are valid everywhere).  Its
    dense matrix (one row and right-hand side per cut, in insertion order)
    is the only stored form of a cut: each LP takes its active rows straight
    from it, and pool_keys only detects duplicates.  Each LP carries an
    active subset: pooled rows violated by the current relaxation point
    re-enter before any new separation runs, and rows that stay slack for
    many consecutive solves leave the LP again.
    """

    IDLE_DROP = 30

    def __init__(self, g: Graph, cfg: SolverConfig):
        self.g = g
        self.cfg = cfg
        self.pool_keys: set = set()
        self.counts = {fam: 0 for fam in FAMILIES}
        self._matrix = np.zeros((0, g.mc))
        self._rhs = np.zeros(0)
        self.active: list[int] = []
        self._idle = np.zeros(0, dtype=np.intp)  # consecutive slack solves, per pool row
        self.incumbent: frozenset[int] = frozenset(range(g.mc))
        self.ub = g.mc
        self.nodes = 0
        self.counter = 0
        self.heap: list = []  # (bound, counter, fixings, pool basis or None)

    def add_cut(self, cut: Cut) -> bool:
        key = cut.key()
        if key in self.pool_keys:
            return False
        idx = len(self.pool_keys)
        self.pool_keys.add(key)
        if idx >= self._matrix.shape[0]:
            grow = max(256, self._matrix.shape[0])
            self._matrix = np.vstack([self._matrix, np.zeros((grow, self.g.mc))])
            self._rhs = np.concatenate([self._rhs, np.zeros(grow)])
            self._idle = np.concatenate([self._idle, np.zeros(grow, dtype=np.intp)])
        for f, a in cut.coeffs.items():
            self._matrix[idx, f] = a
        self._rhs[idx] = cut.rhs
        self.active.append(idx)
        self.counts[cut.family] += 1
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("cut %s", cut.to_line())
            # spot-check: no valid cut may reject the current incumbent
            x = Point.from_fill(self.g, self.incumbent)
            if evaluate(cut, x) > 0:
                logger.error("pooled cut violated by the incumbent: %s", cut.to_line())
        return True

    def refresh_active(self, x: np.ndarray) -> int:
        """Re-activate pooled rows violated at x; age and drop slack ones.

        An active row slack at x ages by one solve, any other active row is
        reset; a row idle for more than IDLE_DROP solves leaves the LP.  The
        kept rows keep their order and the re-activated ones follow in pool
        order.
        """
        k = len(self.pool_keys)
        slack = self._matrix[:k] @ x - self._rhs[:k]
        violated = slack < -VIOLATION_TOL
        active = np.array(self.active, dtype=np.intp)
        violated[active] = False
        idle = np.where(slack[active] > 1e-6, self._idle[active] + 1, 0)
        self._idle[active] = idle
        added = np.flatnonzero(violated)
        self._idle[added] = 0
        self.active = active[idle <= self.IDLE_DROP].tolist() + added.tolist()
        return len(added)

    def offer_incumbent(self, fill: frozenset[int]) -> bool:
        if len(fill) >= self.ub:
            return False
        if not is_valid_completion(self.g, fill):
            logger.warning("discarding invalid incumbent candidate of size %d", len(fill))
            return False
        self.incumbent = frozenset(fill)
        self.ub = len(fill)
        logger.info("incumbent improved to %d", self.ub)
        return True

    def push(self, bound: float, fixings: dict, basis: Basis | None = None):
        self.counter += 1
        heapq.heappush(self.heap, (bound, self.counter, fixings, basis))

    def activate(self, basis: Basis | None) -> Basis | None:
        """Put the tight rows of a pool basis back into the active set and
        return the basis over LP row positions (active-list order)."""
        if basis is None:
            return None
        pos = {pid: i for i, pid in enumerate(self.active)}
        for pid in basis.rows:
            if pid not in pos:
                pos[pid] = len(self.active)
                self.active.append(pid)
                self._idle[pid] = 0
        return Basis(basis.cols, tuple(pos[pid] for pid in basis.rows))

    def pool_basis(self, basis: Basis) -> Basis:
        """An LP basis with its tight rows named by pool id."""
        return Basis(basis.cols, tuple(self.active[i] for i in basis.rows))

    def build_lp(self, fixings: dict) -> LpProblem:
        lb = np.zeros(self.g.mc)
        ub = np.ones(self.g.mc)
        for j, val in fixings.items():
            lb[j] = ub[j] = val
        return LpProblem(self._matrix[self.active], self._rhs[self.active], lb, ub)


def solve(g: Graph, cfg: SolverConfig | None = None) -> SolveResult:
    """Solve the minimum chordal completion problem exactly.

    With no limits the result is OPTIMAL with a provably minimum fill set.
    Under a time or node limit the result carries valid lower/upper bounds
    and the best chordal completion found.
    """
    if cfg is None:
        cfg = SolverConfig()
    t0 = time.perf_counter()
    deadline = None if cfg.time_limit_s is None else t0 + cfg.time_limit_s

    incumbent, root_cuts = root_initialize(g, cfg)
    root_bound = _packing_bound(root_cuts)
    if (root_bound >= len(incumbent)
            and (not incumbent or is_valid_completion(g, incumbent))):
        # chordal g (no fill, no cuts), or the root cuts prove the incumbent
        ub = len(incumbent)
        counts = {fam: sum(c.family == fam for c in root_cuts) for fam in FAMILIES}
        return SolveResult(OPTIMAL, incumbent, ub, ub, 0, counts, len(root_cuts),
                           time.perf_counter() - t0)

    search = _Search(g, cfg)
    search.offer_incumbent(incumbent)
    for cut in root_cuts:
        search.add_cut(cut)
    search.push(root_bound, {})
    status = OPTIMAL

    while search.heap:
        if deadline is not None and time.perf_counter() > deadline:
            status = TIME_LIMIT
            break
        if cfg.node_limit is not None and search.nodes >= cfg.node_limit:
            status = FEASIBLE
            break
        bound, _, fixings, basis = heapq.heappop(search.heap)
        if math.ceil(bound - BOUND_TOL) >= search.ub:
            continue  # best-bound order: every other open node is no better
        search.nodes += 1
        _process_node(search, fixings, bound, basis, deadline)

    lb = search.ub
    if status != OPTIMAL and search.heap:
        lb = min(math.ceil(search.heap[0][0] - BOUND_TOL), search.ub)  # the heap minimum
    if lb == search.ub:
        status = OPTIMAL  # open nodes, if any, cannot improve the incumbent
    return SolveResult(
        status=status,
        best_fill=search.incumbent,
        lower_bound=int(lb),
        upper_bound=int(search.ub),
        nodes=search.nodes,
        cuts_by_family=dict(search.counts),
        total_cuts=len(search.pool_keys),
        wall_time_s=time.perf_counter() - t0,
    )


def _packing_bounds(cuts):
    """Yield, after each cut, the sum of rhs over the unit-coefficient cuts
    so far packed greedily, in order, with pairwise disjoint supports: each
    a lower bound on the optimum."""
    used: set[int] = set()
    bound = 0
    for cut in cuts:
        if used.isdisjoint(cut.coeffs) and all(a == 1 for a in cut.coeffs.values()):
            used.update(cut.coeffs)
            bound += cut.rhs
        yield bound


def _packing_bound(cuts: list[Cut]) -> int:
    """The greedy packing bound of all the cuts: the last, hence the
    largest, of _packing_bounds."""
    return max(_packing_bounds(cuts), default=0)


def _process_node(search: _Search, fixings: dict, bound: float,
                  basis: Basis | None, deadline) -> None:
    g, cfg = search.g, search.cfg
    rounds = 0
    while True:
        if deadline is not None and time.perf_counter() > deadline:
            search.push(bound, fixings, basis)  # cuts are global; nothing is lost
            return
        lp_basis = search.activate(basis)  # before build_lp: rows must be in
        res = solve_lp(search.build_lp(fixings), basis=lp_basis,
                       cutoff=search.ub - 1 + BOUND_TOL, deadline=deadline)
        if res.status in (INFEASIBLE, CUTOFF):
            return  # CUTOFF: ceil(objective - BOUND_TOL) >= ub, as a pruned bound
        if res.status == ITERATION_LIMIT:
            if deadline is not None and time.perf_counter() > deadline:
                search.push(bound, fixings, basis)
                return
            logger.warning("LP iteration limit at node; branching on parent bound")
            _branch(search, None, fixings, bound, None)
            return
        bound = res.objective  # the node's bound from here on: its last LP's
        basis = search.pool_basis(res.basis)
        # pull violated pooled rows back into the LP before separating anew
        if search.refresh_active(res.point.values):
            continue
        if math.ceil(bound - BOUND_TOL) >= search.ub:
            return
        x = res.point
        if x.is_integral():
            cuts = separate_integer(g, x, families=cfg.families_enabled).cuts
            if not cuts:
                search.offer_incumbent(x.fill_set())
                return
            search.offer_incumbent(primal_repair(g, x))
        else:
            cuts = _fractional_cuts(search, x, deadline)
        added = sum(search.add_cut(c) for c in cuts)
        rounds += 1
        if added == 0 or rounds >= MAX_ROUNDS_PER_NODE:
            _branch(search, x, fixings, bound, basis)
            return


def _fractional_cuts(search: _Search, x: Point, deadline=None) -> list:
    """Threshold separation at each of THRESHOLDS in turn, until one finds
    a cut.  A threshold that rounds x to a set already tried is skipped: its
    report would be the same.  Exact I2 separation, if enabled, runs only
    when every threshold came back empty, and stops at the deadline."""
    g, cfg = search.g, search.cfg
    cuts = []
    tried = set()
    for d in THRESHOLDS:
        rounded = (x.values >= d).tobytes()
        if rounded in tried:
            continue
        tried.add(rounded)
        cuts = separate_threshold(g, x, d, families=cfg.families_enabled).cuts
        if cuts:
            break
    if not cuts and cfg.exact_i2:
        cuts = separate_i2_exact(g, x, deadline=deadline).cuts
    return cuts


def _branch(search: _Search, x: Point | None, fixings: dict, bound: float,
            child_basis: Basis | None) -> None:
    g = search.g
    free = [j for j in range(g.mc) if j not in fixings]
    if not free:
        if x is None:
            # the LP stopped at its pivot cap, but the fixings pin every
            # variable: the leaf's point is known without it
            search.offer_incumbent(frozenset(j for j, v in fixings.items() if v))
        return
    if x is not None:
        j = min(free, key=lambda f: (abs(float(x.values[f]) - 0.5), f))
    else:
        j = free[0]
    for val in (0, 1):
        child = dict(fixings)
        child[j] = val
        search.push(bound, child, child_basis)
