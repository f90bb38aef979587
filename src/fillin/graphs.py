"""Simple undirected graphs with canonical fill-edge indexing.

Vertices are integers 0..n-1.  Edges are unordered pairs stored as tuples
(u, v) with u < v.  The complement ("fill") edges are indexed 0..mc-1 in
lexicographic order of their sorted pairs; this index space is shared by
points, cuts and completions throughout the package.
"""

from __future__ import annotations

from itertools import combinations

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

    Adjacency has one form, bitmasks: bit u of ``adj_mask[v]`` is set iff
    {u, v} is an edge.

    ``fill_table[u * n + v]`` is the fill index of the pair {u, v}, or -1
    when it is an edge or u == v; it does not check its arguments, so
    outside callers use :meth:`fill_index`.
    """

    __slots__ = ("n", "edges", "adj_mask", "fill_edges", "fill_table")

    def __init__(self, n: int, edges, require_connected: bool = True):
        if n < 1:
            raise GraphError(f"vertex count must be positive, got {n}")
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"vertex out of range in edge ({u}, {v}) for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            seen.add(edge(u, v))
        self.n = n
        self.edges = frozenset(seen)
        mask = [0] * n
        for u, v in seen:
            mask[u] |= 1 << v
            mask[v] |= 1 << u
        self.adj_mask = tuple(mask)
        if require_connected and not self.is_connected():
            raise GraphError("graph is disconnected")
        self.fill_edges = tuple(
            p for p in combinations(range(n), 2) if p not in self.edges
        )
        table = [-1] * (n * n)
        for i, (u, v) in enumerate(self.fill_edges):
            table[u * n + v] = table[v * n + u] = i
        self.fill_table = tuple(table)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def mc(self) -> int:
        return len(self.fill_edges)

    def has_edge(self, u: int, v: int) -> bool:
        return edge(u, v) in self.edges

    def fill_index(self, u: int, v: int) -> int:
        n = self.n
        f = self.fill_table[u * n + v] if 0 <= u < n and 0 <= v < n else -1
        if f < 0:
            raise GraphError(f"({u}, {v}) is not a fill edge")
        return f

    def fill_pair(self, i: int) -> tuple[int, int]:
        if not 0 <= i < len(self.fill_edges):
            raise GraphError(f"fill index {i} out of range [0, {self.mc})")
        return self.fill_edges[i]

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
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

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

    def __len__(self):
        return len(self.vertices)

    def __eq__(self, other):
        return isinstance(other, Cycle) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Cycle{self.vertices}"

    def ext_pairs(self) -> list[tuple[int, int]]:
        k = len(self.vertices)
        return [edge(self.vertices[i], self.vertices[(i + 1) % k]) for i in range(k)]

    def int_pairs(self) -> list[tuple[int, int]]:
        ext = set(self.ext_pairs())
        return [p for p in combinations(sorted(self.vertices), 2) if p not in ext]

    def dist(self, i: int, j: int) -> int:
        """Cyclic distance between two positions in the sequence."""
        k = len(self.vertices)
        d = abs(i - j) % k
        return min(d, k - d)

    def missing_ext(self, g: Graph) -> list[tuple[int, int]]:
        """Exterior pairs that are not edges of g (the activation set F)."""
        return [p for p in self.ext_pairs() if p not in g.edges]

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
    """
    adj = _completed_masks(g, fill)
    n = g.n
    full = (1 << n) - 1
    seen: set[tuple[int, ...]] = set()
    for v in range(n):
        above_v = full ^ ((2 << v) - 1)
        ws = adj[v]
        while ws:
            low = ws & -ws
            ws ^= low
            w = low.bit_length() - 1
            targets = adj[w] & above_v & ~adj[v]
            if not targets:
                continue
            allowed = full & ~(adj[w] | low)
            parent = _bfs_parents(adj, v, allowed, targets)
            while targets:
                low = targets & -targets
                targets ^= low
                u = low.bit_length() - 1
                if u not in parent:
                    continue
                path = [w, u]
                a = parent[u]
                while a != v:
                    path.append(a)
                    a = parent[a]
                path.append(v)
                vs = _canonical(tuple(path))
                if vs in seen:
                    continue
                seen.add(vs)
                yield Cycle(vs)


def _bfs_parents(adj, v: int, allowed: int, targets: int) -> dict[int, int]:
    """Breadth-first search from v through the vertices of allowed,
    neighbours in ascending id order.  Returns the parent of every vertex
    reached, stopping once each target (never expanded) has one."""
    parent = {v: -1}
    seen = 1 << v
    queue = [v]
    for a in queue:
        hit = adj[a] & targets
        if hit:
            targets ^= hit
            while hit:
                low = hit & -hit
                parent[low.bit_length() - 1] = a
                hit ^= low
            if not targets:
                break
        new = adj[a] & allowed & ~seen
        seen |= new
        while new:
            low = new & -new
            b = low.bit_length() - 1
            parent[b] = a
            queue.append(b)
            new ^= low
    return parent


def find_chordless_cycle(g: Graph):
    """Return one chordless cycle of length >= 4, or None if g is chordal."""
    for cyc in iter_chordless_cycles(g):
        return cyc
    return None


def apply_completion(g: Graph, fill) -> Graph:
    """Return g with the given fill-edge indices added; g is unmodified."""
    extra = [g.fill_pair(i) for i in fill]
    return Graph(g.n, list(g.edges) + extra, require_connected=False)


def is_valid_completion(g: Graph, fill) -> bool:
    """True iff adding the given fill edges makes g chordal."""
    return _perfect_elimination_order(_completed_masks(g, fill)) is not None
