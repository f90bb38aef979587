"""Minimum-degree-ordering construction heuristic and the primal repair used
to turn infeasible integer points into chordal completions.  All of them
run on adjacency bitmasks (``Graph.adj_mask``)."""

from __future__ import annotations

from .graphs import (Graph, Point, _bits, _completed_masks, _eliminate,
                     _perfect_elimination_order)


def mdo_order(g: Graph, dynamic: bool = False) -> tuple[int, ...]:
    """Vertices sorted by ascending degree in g, ties by ascending id.

    The default sort is static: degrees are taken once from the input graph
    and not recomputed as vertices are eliminated.  With dynamic=True the
    classic minimum-degree rule is used instead: after each elimination the
    remaining degrees (including elimination fill) are updated.
    """
    if not dynamic:
        return _static_order(g.adj_mask)
    adj = list(g.adj_mask)
    remaining = (1 << g.n) - 1
    order = []
    while remaining:
        v = min(_bits(remaining), key=lambda u: ((adj[u] & remaining).bit_count(), u))
        order.append(v)
        remaining ^= 1 << v
        nbrs = adj[v] & remaining
        for u in _bits(nbrs):
            adj[u] |= nbrs ^ (1 << u)
    return tuple(order)


def _static_order(adj) -> tuple[int, ...]:
    return tuple(sorted(range(len(adj)), key=lambda v: (adj[v].bit_count(), v)))


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
    return _elimination_fill(g, g.adj_mask, [int(v) for v in order])


def _elimination_fill(g: Graph, adj, order) -> frozenset[int]:
    """Fill indices of g added by eliminating in order on the graph with
    masks adj, a supergraph of g on its vertices; adj is not modified."""
    n, table = g.n, g.fill_table
    return frozenset(table[a * n + b] for a, missing in _eliminate(adj, order)
                     for b in _bits(missing))


def _static_mdo_fill(g: Graph, adj) -> frozenset[int]:
    """Static minimum-degree fill (as fill indices of g) of the supergraph of
    g with masks adj; none when it is chordal, as the order may not be a PEO."""
    if _perfect_elimination_order(adj) is not None:
        return frozenset()
    return _elimination_fill(g, adj, _static_order(adj))


def mdo_completion(g: Graph) -> frozenset[int]:
    """Chordal completion from the static minimum-degree ordering; no fill
    for a graph that is already chordal."""
    return _static_mdo_fill(g, g.adj_mask)


def primal_repair(g: Graph, x: Point) -> frozenset[int]:
    """Chordalize the graph described by an integer point.

    Returns E(x) plus the minimum-degree-ordering fill of g + E(x) (none
    when g + E(x) is already chordal); the result always contains E(x) and
    is a chordal completion of g.
    """
    if not x.is_integral():
        raise ValueError("primal repair requires an integral point")
    on = x.fill_set()
    return on | _static_mdo_fill(g, _completed_masks(g, on))
