"""Regenerate optima.json: the reference optimum of every many-small pool
graph with more than ORACLE_MAX_N vertices.

The optima come from a dynamic program over elimination orderings that
shares no code with fillin: eliminating v after the set S adds one fill edge
from v to every vertex outside S that v reaches through S but is not adjacent
to, and the minimum fill-in is the cheapest ordering.  Run from the
repository root:

    python3 perfbench/make_optima.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def min_fill_in(n: int, edges) -> int:
    """Exact minimum fill-in by dynamic programming over eliminated sets."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << n) - 1
    best = [n * n] * (1 << n)
    best[0] = 0
    for s in range(1 << n):
        if best[s] == n * n:
            continue
        # components of the eliminated set s, each with its neighbourhood
        comps = []
        left = s
        while left:
            comp = left & -left
            frontier = comp
            while frontier:
                nbrs = 0
                while frontier:
                    low = frontier & -frontier
                    nbrs |= adj[low.bit_length() - 1]
                    frontier ^= low
                frontier = nbrs & left & ~comp
                comp |= frontier
            left &= ~comp
            nb = 0
            c = comp
            while c:
                low = c & -c
                nb |= adj[low.bit_length() - 1]
                c ^= low
            comps.append((comp, nb & ~s))
        rest = full & ~s
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            reach = adj[v]
            for comp, nb in comps:
                if comp & adj[v]:
                    reach |= nb
            reach &= ~s & ~low
            cost = best[s] + (reach & ~adj[v]).bit_count()
            if cost < best[s | low]:
                best[s | low] = cost
    return best[full]


def main() -> None:
    out = {}
    for pool in workloads.POOLS:
        optima = []
        for i in range(workloads.POOL_SIZE):
            n, edges = workloads.pool_edges(pool, i)
            optima.append(min_fill_in(n, edges) if n > workloads.ORACLE_MAX_N else None)
        out[pool] = optima
    workloads.OPTIMA_FILE.write_text(json.dumps(out, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
