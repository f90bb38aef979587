"""Finding violated cuts.

Three mechanisms:

* threshold separation -- a point is rounded by a threshold, chordless
  cycles of the rounded graph yield one cut per enabled family, and each is
  checked at the true point (heuristic: may miss cuts);
* integer separation -- threshold separation of an integral point, which
  rounding returns unchanged: the lazy cuts, none iff g + E(x) is chordal;
* exact separation for families I2 and I3 -- shortest-path searches over
  auxiliary weighted graphs whose path weights reproduce the inequality
  slack exactly, so a violated cut is found whenever one exists (for I2,
  one Floyd-Warshall pass per call over every centre vertex at once, then
  one pass over the first hop of every centre).

Every separator hands each cut it builds to SeparationReport.add, the one
keep rule: kept iff strictly violated at the exact queried point and new by
Cut.key(), the pool's identity.  Threshold separation does not even build
the copies where families coincide on short cycles (see cuts.screen_cycle).

The solver's root reads integer separation at x = 0 with no screen and no
evaluation: root_rows yields, in order, each cut that separate_integer(g,
Point.zeros(g)) reports, built from the table (cuts.cycle_rows).  On a
chordless cycle of g every support pair is a fill pair and every exterior
pair an edge, so each screened cut is a unit row with rhs m(k) >= 1,
violated at 0, and the keep rule keeps each one whose key is new.

The threshold and integer scans record nothing.  They read a map, pooled,
from a canonical cycle's vertex tuple to the (family, positions) of the
cuts on it that the caller holds and that the point satisfies, and a cycle
whose screened cuts are all in it is counted but not screened: the keep
rule would keep none of them, so the report is the one without the map.
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import permutations
from types import MappingProxyType

import numpy as np

from .cuts import (
    FAMILIES,
    Cut,
    CutError,
    cut_i1,
    cut_i2,
    cut_i3,
    cut_i4,
    cycle_rows,
    evaluate,
    point_values,
    screen_cycle,
    screened_entries,
)
from .graphs import Cycle, Graph, Point, iter_chordless_cycles

VIOLATION_TOL = 1e-6
# Integer and threshold separation stop once a call holds this many distinct
# violated inequalities.  A low cap ends cut rounds short of the bound: a
# ladder pass took 1.02 s at a cap of 10, 0.76 s at 30 and 0.63 s at 100
# (0.58 s at 300).
# With no cap at all, queen5_5 spent 12 of its first 20 s separating and
# missed a 90 s limit it met in 74 s at a cap of 10 cycles.
MAX_CUTS_PER_CALL = 100
# Screened violations within this much of the tolerance are built and
# evaluated; the screen's rounding error is many orders of magnitude below.
SCREEN_SLACK = 1e-9
EXACT_MAX_N = 25  # largest graph exact I3 separation runs on
NO_POOL: Mapping = MappingProxyType({})  # the scans' default pooled map: holds nothing


class SeparationError(ValueError):
    """Contract violation (fractional input to the integer separator, etc.)."""


class SeparationCapabilityError(RuntimeError):
    """Instance too large for an exact separator; use threshold separation."""


@dataclass
class SeparationStats:
    cycles_examined: int = 0
    dijkstra_calls: int = 0  # exact separation: centres (I2) or 4-tuples (I3) searched


@dataclass
class SeparationReport:
    cuts: list[Cut] = field(default_factory=list)
    violations: list[float] = field(default_factory=list)
    stats: SeparationStats = field(default_factory=SeparationStats)
    _seen: set = field(default_factory=set, repr=False, compare=False)

    def add(self, cut: Cut, vals: list) -> bool:
        """Keep cut iff it is strictly violated at the point whose
        point_values are vals and its key is new; return whether it was
        kept.  Evaluating first runs evaluate once per built cut."""
        v = evaluate(cut, vals)
        if v <= VIOLATION_TOL:
            return False
        key = cut.key()
        if key in self._seen:
            return False
        self._seen.add(key)
        self.cuts.append(cut)
        self.violations.append(float(v))
        return True

    def __len__(self):
        return len(self.cuts)


def separate_integer(g: Graph, x: Point, families=FAMILIES,
                     pooled: Mapping = NO_POOL) -> SeparationReport:
    """Lazy cuts at an integer point; empty iff g + E(x) is chordal.

    Threshold separation of x: rounding an integral point at any threshold
    in (0, 1) returns the point itself.
    """
    if len(x) != g.mc:
        raise SeparationError(f"point dimension {len(x)} != fill dimension {g.mc}")
    if not x.is_integral():
        raise SeparationError("integer separation requires an integral point")
    return separate_threshold(g, x, 0.5, families, pooled)


def separate_threshold(g: Graph, x: Point, delta: float = 0.5,
                       families=FAMILIES, pooled: Mapping = NO_POOL
                       ) -> SeparationReport:
    """Round coordinates >= delta up, separate combinatorially, re-check at x.

    Scans chordless cycles of g plus the fill rounded up at delta until the
    report holds MAX_CUTS_PER_CALL cuts or every cycle is scanned.  Only the
    cuts whose screened violation (cuts.screen_cycle) comes within
    SCREEN_SLACK of VIOLATION_TOL are built, with all their checks, and
    offered to the report; the screen's rounding error is far below
    SCREEN_SLACK, so the report is the one building every cut would give.
    Each cycle is chordless in g, so no builder can refuse it: a CutError is
    a defect and propagates.  May legitimately return an empty report even
    when a fractional x violates some cut of the full families.

    pooled maps a canonical cycle's vertex tuple to a set of (family,
    positions), each naming a cut the caller holds, built on that cycle at
    those positions (Cut.cycle and Cut.params), that x violates by at most
    VIOLATION_TOL.  A cycle is counted in stats.cycles_examined, and it is
    not screened iff every (family, positions) screen_cycle evaluates on it
    (cuts.screened_entries) is in its set: report.add keeps only cuts
    violated by more than VIOLATION_TOL, so it would keep none of the
    skipped cycle's cuts, and the other cycles are scanned as before.  The
    report is the one an empty map gives, cut for cut and in order.
    """
    if not 0.0 < delta < 1.0:
        raise SeparationError(f"threshold must lie strictly inside (0, 1), got {delta}")
    if len(x) != g.mc:
        raise SeparationError(f"point dimension {len(x)} != fill dimension {g.mc}")
    # Looked up per call, so a builder patched under its name in this module
    # is the one called (perfbench/layers.py times the builders that way).
    builders = {"I1": cut_i1, "I2": cut_i2, "I3": cut_i3, "I4": cut_i4}
    vals = point_values(x)
    floor = VIOLATION_TOL - SCREEN_SLACK
    families = tuple(families)
    screened = {}  # cycle length -> screened_entries on it
    report = SeparationReport()
    for cyc in iter_chordless_cycles(g, np.flatnonzero(x.values >= delta).tolist()):
        report.stats.cycles_examined += 1
        held = pooled.get(cyc.vertices)
        if held is not None:
            k = len(cyc)
            if k not in screened:
                screened[k] = screened_entries(k, families)
            if screened[k] <= held:
                continue
        for fam, positions in screen_cycle(g, cyc, vals, families, floor):
            report.add(builders[fam](g, cyc, *positions), vals)
            if len(report) >= MAX_CUTS_PER_CALL:
                return report
    return report


def root_rows(g: Graph, families=FAMILIES):
    """Yield each cut separate_integer(g, Point.zeros(g), families) reports,
    in the same order: the cuts of every cycle's screened entries, built
    from the table (cuts.cycle_rows), each whose key is new, until
    MAX_CUTS_PER_CALL cuts are yielded.

    With no fill every cycle is chordless in g, so each of those cuts has
    unit coefficients and rhs m(k) >= 1 (see the module docstring): the
    scan's screen and keep rule would keep each new one, and neither runs.
    """
    seen = set()
    for cyc in iter_chordless_cycles(g):
        for cut in cycle_rows(g, cyc, families):
            key = cut.key()
            if key in seen:
                continue
            seen.add(key)
            yield cut
            if len(seen) >= MAX_CUTS_PER_CALL:
                return


def _extended_values(g: Graph, x: Point) -> np.ndarray:
    """Symmetric matrix of x extended with value one on real edges and zero
    on the diagonal.  g.fill_table holds -1 off the fill pairs, so indexing
    x with one appended reads 1 there."""
    table = np.fromiter(g.fill_table, np.intp, g.n * g.n).reshape(g.n, g.n)
    xt = np.append(x.values, 1.0)[table]
    np.fill_diagonal(xt, 0.0)
    return xt


def separate_i2_exact(g: Graph, x: Point, deadline=None) -> SeparationReport:
    """Exact separation of the (lifted) I2 family over a fractional point.

    For every centre c and endpoint pair {p, q}, a violated I2 cut through
    (p, c, q) exists iff the shortest q-p path of two or more hops in a
    complete auxiliary graph on the vertices other than c is shorter than an
    affine function of x at the triple; the path reconstructs the cycle.
    All triples are screened at once, and the paths of every centre with a
    triple that can be violated at all come from one Floyd-Warshall pass
    and one first-hop pass per call (see _i2_paths); stats.dijkstra_calls
    counts these centres.  The triples violated by those paths are then
    found for every centre at once.  The paths let a walk return to q, but
    no walk that does is ever violated, so every violated triple's walk is
    the simple path it would be with q removed, and no fallback search is
    needed.  The clock is read once per centre, before its cycles are
    rebuilt from the paths, and the first centre's read comes before any
    path is computed: past the deadline (a time.perf_counter() reading) the
    call returns the cuts found so far, without the paths if no centre has
    been scanned.
    """
    if len(x) != g.mc:
        raise SeparationError(f"point dimension {len(x)} != fill dimension {g.mc}")
    xt = _extended_values(g, x)
    vals = point_values(x)
    report = SeparationReport()
    idx = np.arange(g.n)
    # bound[c, p, q] = 1 - x(p,q) - (1 - 1.5 x(p,c)) - (1 - 1.5 x(c,q))
    h = 1.0 - 1.5 * xt
    bound = 1.0 - xt - h[:, :, None] - h[:, None, :]
    cand = np.triu(bound > VIOLATION_TOL, 1)
    cand[idx, idx, :] = cand[idx, :, idx] = False
    centres = np.flatnonzero(cand.any(axis=(1, 2)))
    report.stats.dijkstra_calls += len(centres)
    if not len(centres) or (deadline is not None and time.perf_counter() > deadline):
        return report
    dist, first, nxt = _i2_paths(xt, centres)
    viol = cand[centres] & (bound[centres] - dist.transpose(0, 2, 1) > VIOLATION_TOL)
    for j, c in enumerate(centres.tolist()):
        if j and deadline is not None and time.perf_counter() > deadline:
            break  # the first centre's read came before the paths
        fj, nj = first[j], nxt[j]
        for p, q in zip(*np.nonzero(viol[j])):
            path = [int(q), int(fj[q, p])]
            while path[-1] != p:
                path.append(int(nj[path[-1], p]))
            cyc = Cycle((c,) + tuple(path))
            report.stats.cycles_examined += 1
            try:
                cut = cut_i2(g, cyc, 0)
            except CutError:
                continue
            report.add(cut, vals)
    return report


def _i2_paths(xt: np.ndarray, centres: np.ndarray):
    """Cheapest q-p walks of two or more hops avoiding the centre c, for
    every centre in centres and all endpoints, in the complete graph with
    edge weights w_c(a,b) = 1 - x(a,b) + (x(c,a) + x(c,b))/2 >= 0.

    One Floyd-Warshall over the (centres, n, n) array gives D[c], the
    all-pairs shortest paths of the graph minus c, and nxt[c, a, p], the
    vertex after a on the a-p path.  Then one pass over the first hop a, for
    every centre at once, gives dist[c, q, p] = min over a not in {p, q} of
    w_c(q, a) + D[c, a, p] and first[c, q, p], the a that attains it: the
    first hop never takes the direct q-p edge.  The pass keeps an a only if
    it is strictly better than every smaller one, so first is the argmin
    over a, ties going to the smallest a.  No array exceeds
    (centres, n, n).  Returns (dist, first, nxt), indexed by position in
    centres.

    D may pass through q, so such a walk could in principle return to q; it
    never does on a violated triple.  Every edge at q weighs at least
    x(c,q)/2, so a walk that leaves q and returns weighs at least x(c,q)
    plus the weight of its last q-p part.  Against the triple's bound
    1 - x(p,q) - (1 - 1.5 x(p,c)) - (1 - 1.5 x(c,q)), bound - weight <=
    x(c,p) - 1 - x(p,q) - sum(1 - x_e) <= 0 over the edges e of that part,
    whether it is the direct edge or a longer path.  So on every violated
    triple dist is the shortest path of the graph minus {c, q}, and the walk
    is a simple path; Cycle's distinct-vertex check stays as the guard.
    """
    n = len(xt)
    idx = np.arange(n)
    xc = xt[centres]
    w = 1.0 - xt + 0.5 * (xc[:, :, None] + xc[:, None, :])
    k = np.arange(len(centres))
    w[k, centres, :] = w[k, :, centres] = np.inf
    D = w.copy()
    D[:, idx, idx] = 0.0
    nxt = np.broadcast_to(idx, D.shape).copy()
    via = np.empty_like(D)
    better = np.empty(D.shape, dtype=bool)
    for v in range(n):
        np.add(D[:, :, v, None], D[:, None, v, :], out=via)
        np.less(via, D, out=better)
        np.copyto(D, via, where=better)
        np.copyto(nxt, nxt[:, :, v, None], where=better)
    w[:, idx, idx] = np.inf  # no first hop to a == q
    D[:, idx, idx] = np.inf  # nor to a == p: that would be the direct q-p edge
    dist = np.full(D.shape, np.inf)
    first = np.zeros(D.shape, dtype=np.intp)
    for a in range(n):
        np.add(w[:, :, a, None], D[:, None, a, :], out=via)  # via[j, q, p]: q -> a, then D
        np.less(via, dist, out=better)
        np.copyto(dist, via, where=better)
        np.copyto(first, a, where=better)
    return dist, first, nxt


def separate_i3_exact(g: Graph, x: Point) -> SeparationReport:
    """Exact separation of the (lifted) I3 family over a fractional point.

    Works on the pair digraph whose nodes are ordered vertex pairs and whose
    arc weights accumulate, around a closed walk, exactly the I3 slack of
    the corresponding cycle: one shortest-path query per ordered 4-tuple
    (u, v, w, t), closed back to u through pairs avoiding the 4-tuple.
    """
    if g.n > EXACT_MAX_N:
        raise SeparationCapabilityError(
            f"exact I3 separation capped at {EXACT_MAX_N} vertices (graph has "
            f"{g.n}); use threshold separation instead"
        )
    if len(x) != g.mc:
        raise SeparationError(f"point dimension {len(x)} != fill dimension {g.mc}")
    xt = _extended_values(g, x)
    vals = point_values(x)
    n = g.n

    def arcw(a: int, b: int, c: int) -> float:
        return (1.0 - xt[a, b]) + xt[a, c] + (1.0 - xt[b, c])

    report = SeparationReport()
    for u, v, w, t in permutations(range(n), 4):
        fixed = arcw(u, v, w) + arcw(v, w, t)
        if fixed >= 2.0 - VIOLATION_TOL:
            continue
        total, zs = _pair_digraph_search(xt, n, (u, v, w, t), fixed, arcw)
        report.stats.dijkstra_calls += 1
        if zs is None or 2.0 - total <= VIOLATION_TOL:
            continue
        vertices = (u, v, w, t) + tuple(zs)
        if len(set(vertices)) != len(vertices):
            continue  # closed walk revisited a vertex; not a simple cycle
        cyc = Cycle(vertices)
        report.stats.cycles_examined += 1
        try:
            cut = cut_i3(g, cyc)
        except CutError:
            continue
        report.add(cut, vals)
    return report


def _pair_digraph_search(xt, n, quad, fixed, arcw):
    """Cheapest closed walk (u,v,w,t,z_1..z_k,u) over interior vertices z_i
    outside the quad; ties broken toward fewer arcs.  Returns (total weight,
    interior vertex list) or (inf, None)."""
    u, v, w, t = quad
    forb = set(quad)
    dist: dict[tuple[int, int], tuple[float, int]] = {}
    pred: dict[tuple[int, int], tuple[int, int] | None] = {}
    heap = []
    for z in range(n):
        if z in forb:
            continue
        s = (t, z)
        d = fixed + arcw(w, t, z)
        dist[s] = (d, 1)
        pred[s] = None
        heapq.heappush(heap, (d, 1, s))
    best = (float("inf"), None)
    done = set()
    while heap:
        d, hops, s = heapq.heappop(heap)
        if s in done:
            continue
        done.add(s)
        a, b = s
        closing = d + arcw(a, b, u) + arcw(b, u, v)
        if closing < best[0] - 1e-15:
            best = (closing, s)
        for c in range(n):
            if c in forb or c == a or c == b:
                continue
            nd = d + arcw(a, b, c)
            ns = (b, c)
            cur = dist.get(ns, (float("inf"), 0))
            if nd < cur[0] - 1e-12 or (nd < cur[0] + 1e-12 and hops + 1 < cur[1]):
                dist[ns] = (nd, hops + 1)
                pred[ns] = s
                heapq.heappush(heap, (nd, hops + 1, ns))
    if best[1] is None:
        return float("inf"), None
    zs = []
    s = best[1]
    while s is not None:
        zs.append(s[1])
        s = pred[s]
    zs.reverse()
    return best[0], zs
