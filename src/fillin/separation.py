"""Finding violated cuts.

Three mechanisms:

* integer separation -- at an integer point, chordless cycles of the
  completed graph yield one violated cut per enabled family;
* threshold separation -- a fractional point is rounded by a threshold, the
  integer machinery runs on the rounded graph, and every candidate is then
  re-checked against the true fractional point (heuristic: may miss cuts);
* exact separation for families I2 and I3 -- shortest-path searches over
  auxiliary weighted graphs whose path weights reproduce the inequality
  slack exactly, so a violated cut is found whenever one exists (for I2,
  one batched Floyd-Warshall per centre vertex).

Every emitted cut is re-evaluated at the exact queried point and kept only
if strictly violated.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .cuts import Cut, CutError, FamilyInapplicableError, cut_i1, cut_i2, cut_i3, cut_i4, evaluate
from .graphs import Cycle, Graph, Point, iter_chordless_cycles

VIOLATION_TOL = 1e-6
EXACT_MAX_N = 25  # largest graph the exact separators run on

INTEGER = "INTEGER"
THRESHOLD = "THRESHOLD"
EXACT_I2 = "EXACT_I2"
EXACT_I3 = "EXACT_I3"


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
    source: str = INTEGER
    stats: SeparationStats = field(default_factory=SeparationStats)

    def add(self, cut: Cut, violation: float) -> bool:
        # one copy of each inequality per family: I1 and I3 coincide on a
        # 5-cycle, say, and both families should still be reported
        if any(cut.family == c.family and cut.key() == c.key() for c in self.cuts):
            return False
        self.cuts.append(cut)
        self.violations.append(violation)
        return True

    def __len__(self):
        return len(self.cuts)


def default_cuts_for_cycle(g: Graph, cyc: Cycle, families=("I1", "I2", "I3", "I4"),
                           emit_all_positions: bool = False) -> list[Cut]:
    """Build the enabled families' cuts for one cycle (conditional form).

    One cut per family by default (I2 at position 0, I4 at (j=0, i=2) of the
    canonical rotation); positions ranging over the whole cycle if asked.
    """
    cyc = cyc.canonical()
    k = len(cyc)
    out: list[Cut] = []
    if "I1" in families:
        out.append(cut_i1(g, cyc))
    if "I2" in families:
        positions = range(k) if emit_all_positions else (0,)
        for i in positions:
            try:
                out.append(cut_i2(g, cyc, i))
            except CutError:
                continue
    if "I3" in families and k >= 5:
        out.append(cut_i3(g, cyc))
    if "I4" in families and k >= 5:
        if emit_all_positions:
            pairs = [(i, j) for j in range(k) for i in range(k)
                     if cyc.dist(i, j) >= 2]
        else:
            pairs = [(2, 0)]
        for i, j in pairs:
            try:
                out.append(cut_i4(g, cyc, i, j))
            except CutError:
                continue
    return out


def _separate_on_completed(g: Graph, on: frozenset[int], x: Point, source: str,
                           families, max_cycles: int, emit_all_positions: bool,
                           tol: float) -> SeparationReport:
    """Harvest chordless cycles of g plus the given fill set, build each
    enabled family's cut relative to g, and keep those violated at x."""
    completed = Graph(
        g.n,
        list(g.edges) + [g.fill_pair(i) for i in sorted(on)],
        require_connected=False,
    )
    report = SeparationReport(source=source)
    for cyc in iter_chordless_cycles(completed):
        report.stats.cycles_examined += 1
        for cut in default_cuts_for_cycle(g, cyc, families, emit_all_positions):
            v = evaluate(cut, x)
            if v > tol:
                report.add(cut, float(v))
        if report.stats.cycles_examined >= max_cycles:
            break
    return report


def separate_integer(g: Graph, x: Point, families=("I1", "I2", "I3", "I4"),
                     max_cycles: int = 10, emit_all_positions: bool = False,
                     tol: float = VIOLATION_TOL) -> SeparationReport:
    """Lazy cuts at an integer point; empty iff g + E(x) is chordal."""
    if len(x) != g.mc:
        raise SeparationError(f"point dimension {len(x)} != fill dimension {g.mc}")
    if not x.is_integral():
        raise SeparationError("integer separation requires an integral point")
    return _separate_on_completed(
        g, x.fill_set(), x, INTEGER, families, max_cycles, emit_all_positions, tol
    )


def separate_threshold(g: Graph, x: Point, delta: float = 0.5,
                       families=("I1", "I2", "I3", "I4"), max_cycles: int = 10,
                       emit_all_positions: bool = False,
                       tol: float = VIOLATION_TOL) -> SeparationReport:
    """Round coordinates >= delta up, separate combinatorially, re-check at x.

    May legitimately return an empty report even when x violates some cut of
    the full families.
    """
    if not 0.0 < delta < 1.0:
        raise SeparationError(f"threshold must lie strictly inside (0, 1), got {delta}")
    if len(x) != g.mc:
        raise SeparationError(f"point dimension {len(x)} != fill dimension {g.mc}")
    on = frozenset(int(i) for i in np.flatnonzero(x.values >= delta))
    return _separate_on_completed(
        g, on, x, THRESHOLD, families, max_cycles, emit_all_positions, tol
    )


def _extended_values(g: Graph, x: Point) -> np.ndarray:
    """Symmetric matrix of x extended with value one on real edges."""
    xt = np.zeros((g.n, g.n))
    for (u, v) in g.edges:
        xt[u, v] = xt[v, u] = 1.0
    for f, (u, v) in enumerate(g.fill_edges):
        xt[u, v] = xt[v, u] = float(x.values[f])
    return xt


def separate_i2_exact(g: Graph, x: Point, tol: float = VIOLATION_TOL) -> SeparationReport:
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
    report = SeparationReport(source=EXACT_I2)
    n = g.n
    for c in range(n):
        # bound[p, q] = 1 - x(p,q) - (1 - 1.5 x(p,c)) - (1 - 1.5 x(c,q))
        h = 1.0 - 1.5 * xt[c]
        bound = 1.0 - xt - h[:, None] - h[None, :]
        cand = np.triu(bound > tol, 1)
        cand[c, :] = cand[:, c] = False
        if not cand.any():
            continue
        dist, nxt = _i2_shortest_paths(xt, c)
        report.stats.dijkstra_calls += 1
        for p, q in zip(*np.nonzero(cand & (bound - dist.T > tol))):
            path = [int(q)]
            while path[-1] != p:
                path.append(int(nxt[q, path[-1], p]))
            cyc = Cycle((c,) + tuple(path))
            report.stats.cycles_examined += 1
            try:
                cut = cut_i2(g, cyc, 0)
            except CutError:
                continue
            v = evaluate(cut, x)
            if v > tol:
                report.add(cut, float(v))
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


def separate_i3_exact(g: Graph, x: Point, tol: float = VIOLATION_TOL,
                      vertex_cap: int = EXACT_MAX_N) -> SeparationReport:
    """Exact separation of the (lifted) I3 family over a fractional point.

    Works on the pair digraph whose nodes are ordered vertex pairs and whose
    arc weights accumulate, around a closed walk, exactly the I3 slack of
    the corresponding cycle: one shortest-path query per ordered 4-tuple
    (u, v, w, t), closed back to u through pairs avoiding the 4-tuple.
    """
    if g.n > vertex_cap:
        raise SeparationCapabilityError(
            f"exact I3 separation capped at {vertex_cap} vertices (graph has "
            f"{g.n}); use threshold separation instead"
        )
    if len(x) != g.mc:
        raise SeparationError(f"point dimension {len(x)} != fill dimension {g.mc}")
    xt = _extended_values(g, x)
    n = g.n

    def arcw(a: int, b: int, c: int) -> float:
        return (1.0 - xt[a, b]) + xt[a, c] + (1.0 - xt[b, c])

    report = SeparationReport(source=EXACT_I3)
    for u, v, w, t in permutations(range(n), 4):
        fixed = arcw(u, v, w) + arcw(v, w, t)
        if fixed >= 2.0 - tol:
            continue
        total, zs = _pair_digraph_search(xt, n, (u, v, w, t), fixed, arcw)
        report.stats.dijkstra_calls += 1
        if zs is None or 2.0 - total <= tol:
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
        v2 = evaluate(cut, x)
        if v2 > tol:
            report.add(cut, float(v2))
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
