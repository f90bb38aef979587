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
  one batched Floyd-Warshall per centre vertex).

Every separator hands each cut it builds to SeparationReport.add, the one
keep rule: kept iff strictly violated at the exact queried point and new by
Cut.key(), the pool's identity.  Threshold separation does not even build
the copies where families coincide on short cycles (see cuts.screen_cycle).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .cuts import (
    FAMILIES,
    Cut,
    CutError,
    cut_i1,
    cut_i2,
    cut_i3,
    cut_i4,
    evaluate,
    point_values,
    screen_cycle,
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


class SeparationError(ValueError):
    """Contract violation (fractional input to the integer separator, etc.)."""


class SeparationCapabilityError(RuntimeError):
    """Instance too large for an exact separator; use threshold separation."""


@dataclass
class SeparationStats:
    cycles_examined: int = 0
    dijkstra_calls: int = 0


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


def separate_integer(g: Graph, x: Point, families=FAMILIES) -> SeparationReport:
    """Lazy cuts at an integer point; empty iff g + E(x) is chordal.

    Threshold separation of x: rounding an integral point at any threshold
    in (0, 1) returns the point itself.
    """
    if len(x) != g.mc:
        raise SeparationError(f"point dimension {len(x)} != fill dimension {g.mc}")
    if not x.is_integral():
        raise SeparationError("integer separation requires an integral point")
    return separate_threshold(g, x, 0.5, families)


def separate_threshold(g: Graph, x: Point, delta: float = 0.5,
                       families=FAMILIES) -> SeparationReport:
    """Round coordinates >= delta up, separate combinatorially, re-check at x.

    Scans chordless cycles of g plus the rounded fill until the report
    holds MAX_CUTS_PER_CALL cuts or every cycle is scanned.  Only the cuts
    whose screened violation (cuts.screen_cycle) comes within SCREEN_SLACK
    of VIOLATION_TOL are built, with all their checks, and offered to the
    report; the screen's rounding error is far below SCREEN_SLACK, so the
    report is the one building every cut would give.  Each cycle is
    chordless in g, so no builder can refuse it: a CutError is a defect and
    propagates.  May legitimately return an empty report even when a
    fractional x violates some cut of the full families.
    """
    if not 0.0 < delta < 1.0:
        raise SeparationError(f"threshold must lie strictly inside (0, 1), got {delta}")
    if len(x) != g.mc:
        raise SeparationError(f"point dimension {len(x)} != fill dimension {g.mc}")
    # Looked up per call, so a builder patched under its name in this module
    # is the one called (perfbench/layers.py times the builders that way).
    builders = {"I1": cut_i1, "I2": cut_i2, "I3": cut_i3, "I4": cut_i4}
    vals = point_values(x)
    report = SeparationReport()
    floor = VIOLATION_TOL - SCREEN_SLACK
    for cyc in iter_chordless_cycles(g, np.flatnonzero(x.values >= delta).tolist()):
        report.stats.cycles_examined += 1
        for fam, positions in screen_cycle(g, cyc, vals, families, floor):
            if (report.add(builders[fam](g, cyc, *positions), vals)
                    and len(report) >= MAX_CUTS_PER_CALL):
                return report
    return report


def _extended_values(g: Graph, x: Point) -> np.ndarray:
    """Symmetric matrix of x extended with value one on real edges."""
    xt = np.zeros((g.n, g.n))
    for (u, v) in g.edges:
        xt[u, v] = xt[v, u] = 1.0
    for f, (u, v) in enumerate(g.fill_edges):
        xt[u, v] = xt[v, u] = float(x.values[f])
    return xt


def separate_i2_exact(g: Graph, x: Point) -> SeparationReport:
    """Exact separation of the (lifted) I2 family over a fractional point.

    For every centre c and endpoint pair {p, q}, a violated I2 cut through
    (p, c, q) exists iff the shortest q-p path of two or more hops in a
    complete auxiliary graph on the vertices other than c is shorter than an
    affine function of x at the triple; the path reconstructs the cycle.
    The paths of one centre come from one batch (see _i2_shortest_paths),
    run only when some triple at that centre can be violated at all;
    stats.dijkstra_calls counts these batches.
    """
    if len(x) != g.mc:
        raise SeparationError(f"point dimension {len(x)} != fill dimension {g.mc}")
    xt = _extended_values(g, x)
    vals = point_values(x)
    report = SeparationReport()
    n = g.n
    for c in range(n):
        # bound[p, q] = 1 - x(p,q) - (1 - 1.5 x(p,c)) - (1 - 1.5 x(c,q))
        h = 1.0 - 1.5 * xt[c]
        bound = 1.0 - xt - h[:, None] - h[None, :]
        cand = np.triu(bound > VIOLATION_TOL, 1)
        cand[c, :] = cand[:, c] = False
        if not cand.any():
            continue
        dist, nxt = _i2_shortest_paths(xt, c)
        report.stats.dijkstra_calls += 1
        for p, q in zip(*np.nonzero(cand & (bound - dist.T > VIOLATION_TOL))):
            path = [int(q)]
            while path[-1] != p:
                path.append(int(nxt[q, path[-1], p]))
            cyc = Cycle((c,) + tuple(path))
            report.stats.cycles_examined += 1
            try:
                cut = cut_i2(g, cyc, 0)
            except CutError:
                continue
            report.add(cut, vals)
    return report


def _i2_shortest_paths(xt: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Cheapest q-p paths of two or more hops avoiding the centre c, for all
    endpoints at once, in the complete graph with edge weights
    w(a,b) = 1 - x(a,b) + (x(c,a) + x(c,b))/2 >= 0.

    D[q] holds all-pairs shortest paths of the graph minus {c, q}, from one
    Floyd-Warshall over the n x n x n array of all q together; then
    dist[q, p] = min over a != p of w(q, a) + D[q, a, p], which never takes
    the direct q-p edge and never returns to q.  Returns dist (inf on the
    diagonal) and nxt, where nxt[q, a, p] is the vertex after a on the q-p
    path (nxt[q, q, p] its first hop).
    """
    n = len(xt)
    idx = np.arange(n)
    w = 1.0 - xt + 0.5 * (xt[c][:, None] + xt[c][None, :])
    D = np.broadcast_to(w, (n, n, n)).copy()
    D[:, idx, idx] = 0.0
    D[:, c, :] = D[:, :, c] = np.inf
    D[idx, idx, :] = np.inf
    D[idx, :, idx] = np.inf
    nxt = np.broadcast_to(idx, (n, n, n)).copy()
    via = np.empty_like(D)
    better = np.empty(D.shape, dtype=bool)
    for v in range(n):
        if v == c:
            continue
        np.add(D[:, :, v, None], D[:, None, v, :], out=via)
        np.less(via, D, out=better)
        np.copyto(D, via, where=better)
        np.copyto(nxt, nxt[:, :, v, None], where=better)
    total = w[:, :, None] + D  # total[q, a, p]: first hop q -> a, then D
    total[:, idx, idx] = np.inf  # a == p would be the direct q-p edge
    first = total.argmin(axis=1)
    dist = np.take_along_axis(total, first[:, None, :], axis=1)[:, 0, :]
    nxt[idx, idx, :] = first
    return dist, nxt


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
