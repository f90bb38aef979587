"""Simple undirected graphs with canonical fill-edge indexing.

Vertices are integers 0..n-1.  Edges are unordered pairs stored as tuples
(u, v) with u < v.  The complement ("fill") edges are indexed 0..mc-1 in
lexicographic order of their sorted pairs; this index space is shared by
points, cuts and completions throughout the package.
"""

from __future__ import annotations

from array import array
from operator import index

import numpy as np

INTEGRALITY_TOL = 1e-6


class GraphError(ValueError):
    """Raised for invalid graph construction or invalid fill references."""


def edge(u: int, v: int) -> tuple[int, int]:
    """Normalize an unordered vertex pair to (min, max)."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple undirected graph with fill-edge indexing.

    Use :func:`new_graph` to build one; the bare constructor is shared with
    internal callers (lifting transforms) that need graphs without the
    connectivity requirement.

    Adjacency is stored once, as bitmasks: bit u of ``adj_mask[v]`` is set
    iff {u, v} is an edge.  ``edges``, the set of (u, v) pairs with u < v,
    is derived from the masks on first use and kept.

    ``fill_table[u * n + v]`` is the fill index of the pair {u, v}, or -1
    when it is an edge or u == v; it does not check its arguments, so
    outside callers use :meth:`fill_index`.  The fill pairs themselves sit
    in one array of codes u * n + v, in fill-index order.
    """

    __slots__ = ("n", "adj_mask", "fill_table", "_fill", "_edges")

    def __init__(self, n: int, edges, require_connected: bool = True):
        if n < 1:
            raise GraphError(f"vertex count must be positive, got {n}")
        mask = [0] * n
        for u, v in edges:
            try:  # a numpy integer would cast the masks to int64
                u, v = index(u), index(v)
            except TypeError:
                raise GraphError(f"edge ({u}, {v}) has a non-integer endpoint") from None
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"vertex out of range in edge ({u}, {v}) for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            mask[u] |= 1 << v
            mask[v] |= 1 << u
        self.n = n
        self.adj_mask = tuple(mask)
        self._edges = None
        if require_connected and not self.is_connected():
            raise GraphError("graph is disconnected")
        full = (1 << n) - 1
        fill = array("H" if n <= 256 else "I")  # codes below n * n
        table = [-1] * (n * n)
        for u in range(n):
            for v in _bits(full & ~mask[u] & ~((2 << u) - 1)):  # non-neighbours above u
                table[u * n + v] = table[v * n + u] = len(fill)
                fill.append(u * n + v)
        self._fill = fill
        self.fill_table = tuple(table)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        if self._edges is None:
            self._edges = frozenset((u, v) for u, mask in enumerate(self.adj_mask)
                                    for v in _bits(mask >> u + 1 << u + 1))
        return self._edges

    @property
    def fill_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(divmod(code, self.n) for code in self._fill)

    @property
    def m(self) -> int:
        return sum(mask.bit_count() for mask in self.adj_mask) // 2

    @property
    def mc(self) -> int:
        return len(self._fill)

    def has_edge(self, u: int, v: int) -> bool:
        n = self.n
        # index(v): a numpy integer would cast the mask to int64 past 63 vertices
        return 0 <= u < n and 0 <= v < n and self.adj_mask[u] >> index(v) & 1 == 1

    def fill_index(self, u: int, v: int) -> int:
        n = self.n
        f = self.fill_table[u * n + v] if 0 <= u < n and 0 <= v < n else -1
        if f < 0:
            raise GraphError(f"({u}, {v}) is not a fill edge")
        return f

    def fill_pair(self, i: int) -> tuple[int, int]:
        if not 0 <= i < len(self._fill):
            raise GraphError(f"fill index {i} out of range [0, {self.mc})")
        return divmod(self._fill[i], self.n)

    def is_connected(self) -> bool:
        seen = frontier = 1
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= self.adj_mask[v]
            frontier = reach & ~seen
            seen |= frontier
        return seen == (1 << self.n) - 1

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adj_mask == other.adj_mask
        )

    def __hash__(self):
        return hash((self.n, self.adj_mask))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m}, mc={self.mc})"


def new_graph(n: int, edges) -> Graph:
    """Build a validated, connected graph from a vertex count and edge list."""
    return Graph(n, edges, require_connected=True)


class Cycle:
    """An ordered sequence of k >= 4 distinct vertices.

    Consecutive pairs (with wraparound) form the exterior; all other vertex
    pairs of the sequence form the interior (the chords).
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        vs = tuple(vertices)
        if len(vs) < 4:
            raise GraphError(f"cycle needs at least 4 vertices, got {len(vs)}")
        if len(set(vs)) != len(vs):
            raise GraphError(f"cycle vertices must be distinct: {vs}")
        self.vertices = vs

    @classmethod
    def _from_scan(cls, vs: tuple) -> "Cycle":
        """The cycle vs, unchecked: iter_chordless_cycles yields k >= 4
        distinct vertices, in canonical order."""
        cycle = object.__new__(cls)
        cycle.vertices = vs
        return cycle

    def __len__(self):
        return len(self.vertices)

    def __eq__(self, other):
        return isinstance(other, Cycle) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Cycle{self.vertices}"

    def dist(self, i: int, j: int) -> int:
        """Cyclic distance between two positions in the sequence."""
        k = len(self.vertices)
        d = abs(i - j) % k
        return min(d, k - d)

    def canonical(self) -> "Cycle":
        """Rotate the smallest vertex to the front, then orient so the second
        vertex is the smaller of its two neighbours; self if already so."""
        vs = self.vertices
        if vs[1] < vs[-1] and vs[0] == min(vs):
            return self
        return Cycle(_canonical(vs))


def _canonical(vs: tuple) -> tuple:
    i0 = vs.index(min(vs))
    rot = vs[i0:] + vs[:i0]
    return rot if rot[1] < rot[-1] else (rot[0],) + rot[:0:-1]


class Point:
    """A fractional or integer assignment over a graph's fill-edge space."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 1:
            raise GraphError("point values must be one-dimensional")

    def __len__(self):
        return len(self.values)

    def __repr__(self):
        return f"Point({self.values.tolist()})"

    def is_integral(self) -> bool:
        return bool((np.abs(self.values - np.rint(self.values)) <= INTEGRALITY_TOL).all())

    def fill_set(self) -> frozenset[int]:
        """Indices set to one; only meaningful for integral points."""
        if not self.is_integral():
            raise GraphError("fill_set requires an integral point")
        return frozenset(int(i) for i in np.flatnonzero(self.values > 0.5))

    @staticmethod
    def zeros(g: Graph) -> "Point":
        return Point(np.zeros(g.mc))

    @staticmethod
    def from_fill(g: Graph, fill) -> "Point":
        x = np.zeros(g.mc)
        for i in fill:
            if not 0 <= i < g.mc:
                raise GraphError(f"fill index {i} out of range [0, {g.mc})")
            x[i] = 1.0
        return Point(x)


def _bits(mask: int):
    """Yield the positions of the set bits of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _completed_masks(g: Graph, fill) -> list[int]:
    """Adjacency masks of g plus the given fill-edge indices."""
    masks = list(g.adj_mask)
    for i in fill:
        u, v = g.fill_pair(i)
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _eliminate(adj, order):
    """Eliminate along order on a copy of the masks adj.  For each later
    neighbour a of each eliminated vertex, yield (a, missing), the mask of
    the later neighbours above a not yet joined to a, if it is not empty;
    then join them.  The missing pairs are the order's fill."""
    adj = list(adj)
    remaining = (1 << len(adj)) - 1
    for v in order:
        remaining ^= 1 << v
        nbrs = adj[v] & remaining
        later = nbrs
        while later:
            low = later & -later
            later ^= low  # now the later neighbours above a
            a = low.bit_length() - 1
            missing = later & ~adj[a]
            if missing:
                yield a, missing
            adj[a] |= nbrs ^ low


def _perfect_elimination_order(adj) -> tuple[int, ...] | None:
    """Reverse maximum cardinality search order (ties to the lowest id) of
    the graph with adjacency masks adj, if it is a perfect elimination
    ordering, that is, if it has no fill; None otherwise (the graph is then
    not chordal).  The test stops at the first missing pair."""
    n = len(adj)
    weight = [0] * n  # -1 once visited
    unvisited = (1 << n) - 1
    order = []
    for _ in range(n):
        best = weight.index(max(weight))  # ties to the lowest id
        weight[best] = -1
        unvisited ^= 1 << best
        order.append(best)
        nbrs = adj[best] & unvisited
        while nbrs:
            low = nbrs & -nbrs
            weight[low.bit_length() - 1] += 1
            nbrs ^= low
    elim = tuple(reversed(order))
    return elim if next(_eliminate(adj, elim), None) is None else None


def is_chordal(g: Graph):
    """Test chordality; on success also return a perfect elimination ordering.

    Returns (True, ordering) where eliminating vertices in `ordering` always
    meets a clique of later neighbours, or (False, None).
    """
    elim = _perfect_elimination_order(g.adj_mask)
    return (True, elim) if elim is not None else (False, None)


def iter_chordless_cycles(g: Graph, fill=()):
    """Yield chordless cycles of length >= 4 of g plus the given fill-edge
    indices, in canonical form, deduplicated.

    Scans vertex triples (v, w, u) in ascending id order where v-w-u is a
    path and {v, u} is a non-edge, and closes each with a shortest v-u path
    avoiding both w and its neighbourhood.  One breadth-first search per
    (v, w) serves every endpoint u: u is never expanded, so the search order
    does not depend on which u is allowed, and u's parent is the first
    dequeued vertex adjacent to it.

    Every cycle is chordless by construction, so none is re-checked:
    - no inner vertex of the path lies in N[w], so w has no chord;
    - a path of a BFS tree from v is induced: a chord would be a shortcut;
    - u is adjacent to no path vertex but its parent: the parent is the
      first dequeued vertex adjacent to u, and the other path vertices, its
      ancestors, were dequeued before it.

    Duplicates are dropped by vertex set, before the cycle is built: a
    chordless cycle is the only cycle on its vertex set, which induces
    exactly that cycle, so two cycles share a vertex set iff they are the
    same cycle.  A path's vertices are distinct, so each cycle is put in
    canonical form and built unchecked (Cycle._from_scan).
    """
    adj = _completed_masks(g, fill)
    n = g.n
    full = (1 << n) - 1
    seen: set[int] = set()  # vertex sets of the cycles yielded
    parent = [0] * n  # BFS tree of the current (v, w); read only where reached
    for v in range(n):
        ends = (full ^ ((2 << v) - 1)) & ~adj[v]  # the non-neighbours above v
        ws = adj[v]
        while ws:
            wbit = ws & -ws
            ws ^= wbit
            w = wbit.bit_length() - 1
            targets = adj[w] & ends
            if not targets:
                continue
            # breadth-first search from v through allowed, neighbours in
            # ascending id order, until every target has a parent
            allowed = full & ~(adj[w] | wbit)
            reached = 0  # the targets with a parent
            visited = 1 << v
            queue = [v]
            for a in queue:
                hit = adj[a] & targets
                if hit:
                    targets ^= hit
                    reached |= hit
                    while hit:
                        low = hit & -hit
                        parent[low.bit_length() - 1] = a
                        hit ^= low
                    if not targets:
                        break
                new = adj[a] & allowed & ~visited
                visited |= new
                while new:
                    low = new & -new
                    b = low.bit_length() - 1
                    parent[b] = a
                    queue.append(b)
                    new ^= low
            while reached:
                low = reached & -reached
                reached ^= low
                u = low.bit_length() - 1
                path = [w, u]
                vset = low | wbit | (1 << v)
                a = parent[u]
                while a != v:
                    path.append(a)
                    vset |= 1 << a
                    a = parent[a]
                if vset in seen:
                    continue
                seen.add(vset)
                path.append(v)
                yield Cycle._from_scan(_canonical(tuple(path)))


def apply_completion(g: Graph, fill) -> Graph:
    """Return g with the given fill-edge indices added; g is unmodified."""
    extra = [g.fill_pair(i) for i in fill]
    return Graph(g.n, list(g.edges) + extra, require_connected=False)


def is_valid_completion(g: Graph, fill) -> bool:
    """True iff adding the given fill edges makes g chordal."""
    return _perfect_elimination_order(_completed_masks(g, fill)) is not None
