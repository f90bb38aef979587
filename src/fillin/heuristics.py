"""Minimum-degree-ordering construction heuristic and the primal repair used
to turn infeasible integer points into chordal completions."""

from __future__ import annotations

from .graphs import Graph, Point, edge, is_chordal


def mdo_order(g: Graph, dynamic: bool = False) -> tuple[int, ...]:
    """Vertices sorted by ascending degree in g, ties by ascending id.

    The default sort is static: degrees are taken once from the input graph
    and not recomputed as vertices are eliminated.  With dynamic=True the
    classic minimum-degree rule is used instead: after each elimination the
    remaining degrees (including elimination fill) are updated.
    """
    if not dynamic:
        return tuple(sorted(range(g.n), key=lambda v: (len(g.adj[v]), v)))
    adj = [set(a) for a in g.adj]
    remaining = set(range(g.n))
    order = []
    while remaining:
        v = min(remaining, key=lambda u: (len(adj[u] & remaining), u))
        order.append(v)
        nbrs = sorted(adj[v] & remaining)
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                adj[nbrs[i]].add(nbrs[j])
                adj[nbrs[j]].add(nbrs[i])
        remaining.discard(v)
    return tuple(order)


def chordalize_with_order(g: Graph, order) -> frozenset[int]:
    """Fill edges making the given ordering a perfect elimination ordering.

    Eliminates vertices in sequence, completing each one's not-yet-eliminated
    neighbourhood (including previously added fill) into a clique.  Returns
    the added pairs as fill indices of g; the result is always a chordal
    completion.
    """
    order = tuple(order)
    if sorted(order) != list(range(g.n)):
        raise ValueError("ordering must be a permutation of the vertices")
    adj = [set(a) for a in g.adj]
    eliminated = set()
    fill: set[int] = set()
    for v in order:
        later = sorted(u for u in adj[v] if u not in eliminated)
        for a_idx in range(len(later)):
            for b_idx in range(a_idx + 1, len(later)):
                a, b = later[a_idx], later[b_idx]
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
                    fill.add(g.fill_index(a, b))
        eliminated.add(v)
    return frozenset(fill)


def mdo_completion(g: Graph) -> frozenset[int]:
    """Chordal completion from the static minimum-degree ordering; no fill
    for a graph that is already chordal (the static order need not be a
    perfect elimination ordering of it)."""
    if is_chordal(g)[0]:
        return frozenset()
    return chordalize_with_order(g, mdo_order(g))


def primal_repair(g: Graph, x: Point) -> frozenset[int]:
    """Chordalize the graph described by an integer point.

    Returns E(x) plus the minimum-degree-ordering fill of g + E(x) (none
    when g + E(x) is already chordal); the result always contains E(x) and
    is a chordal completion of g.
    """
    if not x.is_integral():
        raise ValueError("primal repair requires an integral point")
    on = x.fill_set()
    completed = Graph(
        g.n,
        list(g.edges) + [g.fill_pair(i) for i in on],
        require_connected=False,
    )
    repaired = set(on)
    for f in mdo_completion(completed):
        u, v = completed.fill_pair(f)
        repaired.add(g.fill_index(u, v))
    return frozenset(repaired)
