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

Those scans read the pool's index of its cuts by canonical cycle
(_Search.by_cycle), and skip the cycles whose screened cuts are all pooled.
A node separates only after its LP and refresh_active leave no pooled row
violated by more than VIOLATION_TOL, so no skipped cycle holds a cut the
scan would keep, and the cuts, LPs and nodes are those of a search without
the index.

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
surplus basic.  The root LP starts from the packing basis of the root
cuts (lp.packing_basis), at their packing bound, so no LP starts from the
slack basis unless the LP refuses the basis it is given.

One inverse is kept with its basis: that of the last LP that ended
OPTIMAL.  Pool rows never change, so an LP that starts from the same pool
basis, in the same order, has the same block A[T, S], and it gets that
inverse to check and reuse instead of inverting the block again.  The root
packing basis is kept with its inverse, the identity.  Open nodes keep no
inverse: on queen5_5 that would be about a thousand k x k arrays.

Before any LP the root cuts may prove the incumbent optimal.  They are
the cuts of integer separation at x = 0 (separation.root_rows), built from
the family table with no screen and no evaluation: on chordless cycles of
G each is a covering row with unit coefficients.  On rows with pairwise
disjoint supports y = 1 is a feasible LP dual, so the sum of their
right-hand sides bounds the optimum from below; when it reaches a valid
incumbent, the solve ends with no node, as it does on chordal input.  The
incumbent comes first, and the cuts stop at the first one after which the
greedy packing (_packing) reaches it: a root that closes builds only the
cuts that close it, and one that does not builds them all.  When the greedy
packing of all the cuts is one short of the incumbent, a branch and bound
over the same cuts (_best_packing), capped at PACKING_WORK row visits,
looks for a packing that reaches it, and the root closes the same way if
one is found.  Any packing better than the greedy one reaches the
incumbent, so a root the search leaves open keeps the greedy packing, its
packing basis and the search it had without it.  A root that stays open
pools its cuts, in order, as its first pool rows.
"""

from __future__ import annotations

import heapq
import logging
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .cuts import FAMILIES, evaluate
# is_chordal is not called here (mdo_completion tests the input), but it stays
# importable as fillin.solver.is_chordal: perfbench/layers.py traces the graphs
# layer through that name and reports the layer absent without it.
from .graphs import Graph, Point, is_chordal, is_valid_completion  # noqa: F401
from .heuristics import chordalize_with_order, mdo_completion, mdo_order, primal_repair
from .lp import (
    CUTOFF,
    INFEASIBLE,
    ITERATION_LIMIT,
    Basis,
    LpProblem,
    packing_basis,
    solve_lp,
)
from .separation import (
    VIOLATION_TOL,
    root_rows,
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
# A fractional point's roundings, in order: delta, delta / 2 and
# (1 + delta) / 2 at delta = 0.8.  Rounding high first keeps only the
# near-integral fill pairs, whose chordless cycles carry strongly violated
# cuts.  On ladder plus grid4_4, grid3_7, queen4_5 and grid4_5 the old order
# (0.5, 0.25, 0.75) found a cut in 312 of 1,109 calls at 0.5, 58 of 675 at
# 0.25 and 353 of 738 at 0.75, the one tried last.
THRESHOLDS = (0.8, 0.4, 0.9)
# Row visits of _best_packing before it gives up.  On the 527 many-small
# graphs (tuning pool) whose greedy root packing is one short, caps of 25, 50,
# 100, 150, 300 and 1,000 visits closed 394, 414, 431, 438, 443 and 447 roots;
# no cap closes 451, but its 89 failed searches took 0.35 s, 89 ms the worst.
# At 150 the failed searches took 12 ms in all and 0.26 ms the worst, and
# the 438 closes cut the pass's solve time by 0.13 s (1.37 -> 1.24 s).
PACKING_WORK = 150


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
    """(incumbent, cuts): the initial incumbent and the root cuts, the lazy
    cuts at x = 0 (separation.root_rows); no fill and no cuts when g is
    chordal.  The incumbent is the smaller of the static and the dynamic
    minimum-degree completions, the static one on a tie.

    The cuts stop at the first one after which the packing bound of the
    cuts so far reaches the incumbent's size: those cuts prove it optimal,
    and solve needs no more.  Cuts that never get there are all of them.
    """
    if cfg is None:
        cfg = SolverConfig()
    incumbent = mdo_completion(g)
    if not incumbent:
        return incumbent, []  # g is chordal
    incumbent = min(incumbent, chordalize_with_order(g, mdo_order(g, dynamic=True)),
                    key=len)
    cuts: list = []  # every cut the packing has read
    bound = 0
    for _, cut in _packing(cuts.append(c) or c for c in root_rows(g, cfg.families_enabled)):
        bound += cut.rhs
        if bound >= len(incumbent):
            break
    return incumbent, cuts


class _Search:
    """Global search state: cut pool, LP active set, incumbent, node heap.

    The pool keeps every cut ever found (they are valid everywhere).  Its
    dense matrix (one row and right-hand side per cut, in insertion order)
    is the only stored form of a cut: each LP takes its active rows straight
    from it, and pool_keys only detects duplicates.  by_cycle indexes the
    pool by provenance: a canonical cycle's vertex tuple maps to the
    (family, positions) of each pooled cut built on it, which is what the
    separation scans read to skip a cycle.  Each LP carries an
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
        self.kept: tuple = (None, None)  # the last OPTIMAL LP's pool basis, its inverse
        self.by_cycle: dict[tuple, set] = {}

    def add_cut(self, cut) -> bool:
        key = cut.key()
        if key in self.pool_keys:
            return False
        idx = len(self.pool_keys)
        self.pool_keys.add(key)
        self.by_cycle.setdefault(cut.cycle.vertices, set()).add((cut.family, cut.params))
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

    incumbent, cuts = root_initialize(g, cfg)
    packing = list(_packing(cuts))
    root_bound = sum(cut.rhs for _, cut in packing)
    if len(incumbent) - root_bound == 1 and _best_packing(g, cuts, len(incumbent)):
        root_bound = len(incumbent)  # a packing the greedy one missed reaches it
    if (root_bound >= len(incumbent)
            and (not incumbent or is_valid_completion(g, incumbent))):
        # chordal g (no fill, no cuts), or the root cuts prove the incumbent;
        # counted as the pool would have counted them
        ub = len(incumbent)
        counts = {fam: sum(cut.family == fam for cut in cuts) for fam in FAMILIES}
        return SolveResult(OPTIMAL, incumbent, ub, ub, 0, counts, len(cuts),
                           time.perf_counter() - t0)

    search = _Search(g, cfg)
    search.offer_incumbent(incumbent)
    for cut in cuts:
        search.add_cut(cut)
    # the root cuts hold each key once, so root cut i is pool row i
    root_basis = packing_basis(search._matrix, [i for i, _ in packing])
    search.kept = (root_basis, np.eye(len(packing)))
    search.push(root_bound, {}, root_basis)
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


def _unit(cut) -> bool:
    """Whether every coefficient of the cut is one, as on a packing's cuts."""
    return all(a == 1 for a in cut.coeffs.values())


def _packing(cuts):
    """Yield (position, cut) for each cut of the greedy packing: in order,
    each unit-coefficient cut (_unit) whose support is disjoint from those
    taken before.  The sum of their rhs over any prefix bounds the optimum
    from below: on covering rows with unit coefficients and pairwise disjoint
    supports, y = 1 is a feasible LP dual, and its objective is that sum."""
    used: set[int] = set()
    for i, cut in enumerate(cuts):
        if used.isdisjoint(cut.coeffs) and _unit(cut):
            used.update(cut.coeffs)
            yield i, cut


def _best_packing(g: Graph, cuts, target) -> list[int]:
    """Positions of a packing of cuts over g's fill space whose rhs sum
    reaches target, or [] if none is found within PACKING_WORK row visits.

    A packing is a set of unit-coefficient cuts (those _packing accepts)
    with pairwise disjoint supports; as for _packing, y = 1 on its rows is a
    feasible LP dual, so its rhs sum bounds the optimum from below.  A cut
    with rhs <= 0 never helps and is left out.

    Depth-first branch and bound over the rows in the order (-rhs, support
    size, position).  A search node branches on its first remaining row: it
    first takes the row, which drops every remaining row whose support
    meets it, then skips it.  A child whose value plus the rhs sum of its
    remaining rows is below target is pruned before it is pushed; that sum
    is kept incrementally (a take subtracts only the rows it drops).
    """
    order = sorted((-cut.rhs, len(cut.coeffs), i) for i, cut in enumerate(cuts)
                   if cut.rhs > 0 and _unit(cut))
    supports = [cuts[i].coeffs for _, _, i in order]
    rhs = [-r for r, _, _ in order]
    if not 0 < target <= sum(rhs):
        return []  # nothing reaches target, or the empty packing does
    containing = [0] * g.mc  # fill index -> mask of the rows holding it
    for r, support in enumerate(supports):
        for f in support:
            containing[f] |= 1 << r
    meets: list = [None] * len(order)  # row -> mask of the rows its support meets
    stack = [((1 << len(order)) - 1, 0, sum(rhs), ())]  # (left, value, rest, taken)
    work = 0
    while stack and work < PACKING_WORK:
        left, value, rest, taken = stack.pop()  # value + rest >= target > value
        work += 1
        low = left & -left
        r = low.bit_length() - 1
        if value + rest - rhs[r] >= target:
            stack.append((left ^ low, value, rest - rhs[r], taken))  # skip r
        if value + rhs[r] >= target:
            return [order[t][2] for t in taken + (r,)]
        if meets[r] is None:
            meets[r] = 0
            for f in supports[r]:
                meets[r] |= containing[f]
        dropped = left & meets[r]  # r among them
        lost = 0
        while dropped:
            bit = dropped & -dropped
            lost += rhs[bit.bit_length() - 1]
            dropped ^= bit
        if value + rhs[r] + rest - lost >= target:
            stack.append((left & ~meets[r], value + rhs[r], rest - lost, taken + (r,)))
    return []


def _process_node(search: _Search, fixings: dict, bound: float,
                  basis: Basis | None, deadline) -> None:
    g, cfg = search.g, search.cfg
    rounds = 0
    while True:
        if deadline is not None and time.perf_counter() > deadline:
            search.push(bound, fixings, basis)  # cuts are global; nothing is lost
            return
        lp_basis = search.activate(basis)  # before build_lp: rows must be in
        kept_basis, kept_inverse = search.kept
        res = solve_lp(search.build_lp(fixings), basis=lp_basis,
                       cutoff=search.ub - 1 + BOUND_TOL, deadline=deadline,
                       inverse=kept_inverse if kept_basis == basis else None)
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
        search.kept = (basis, res.inverse)
        # pull violated pooled rows back into the LP before separating anew
        if search.refresh_active(res.point.values):
            continue
        if math.ceil(bound - BOUND_TOL) >= search.ub:
            return
        x = res.point
        if x.is_integral():
            cuts = separate_integer(g, x, families=cfg.families_enabled,
                                    pooled=search.by_cycle).cuts
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
        cuts = separate_threshold(g, x, d, families=cfg.families_enabled,
                                  pooled=search.by_cycle).cuts
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
