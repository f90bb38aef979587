"""Brute-force ground truth: exact optima by subset enumeration, full
enumeration of the chordal completions of a graph, and exact affine-rank
computation used to verify facet claims numerically."""

from __future__ import annotations

from .graphs import Graph, Point, is_valid_completion


class OracleBudgetError(RuntimeError):
    """Enumeration would exceed the configured budget."""

    def __init__(self, message: str, last_cardinality: int | None = None):
        super().__init__(message)
        self.last_cardinality = last_cardinality


def _colex_combinations(n: int, k: int):
    """Yield k-subsets of range(n) in colexicographic order."""
    if k == 0:
        yield ()
        return
    for top in range(k - 1, n):
        for rest in _colex_combinations(top, k - 1):
            yield rest + (top,)


def brute_force_mccp(g: Graph, max_subsets: int = 10**7) -> frozenset[int]:
    """Smallest fill set making g chordal, by increasing-cardinality search.

    Subsets of each cardinality are scanned in colex order, so the returned
    witness is a canonical representative of the optimum.  Raises
    OracleBudgetError (reporting the largest fully checked cardinality) if
    more than max_subsets subsets would be checked.
    """
    if max_subsets <= 0:
        raise ValueError("max_subsets must be positive")
    mc = g.mc
    evaluated = 0
    for size in range(mc + 1):
        for subset in _colex_combinations(mc, size):
            evaluated += 1
            if evaluated > max_subsets:
                raise OracleBudgetError(
                    f"budget of {max_subsets} subsets exceeded; "
                    f"all completions of size <= {size - 1} were checked",
                    last_cardinality=size - 1,
                )
            if is_valid_completion(g, subset):
                return frozenset(subset)
    raise AssertionError("unreachable: filling every pair gives a chordal graph")


def enumerate_completions(g: Graph, max_dimension: int = 20):
    """Yield every chordal completion of g (as a frozenset of fill indices).

    Walks all 2^mc fill subsets, so g.mc must not exceed max_dimension.
    """
    mc = g.mc
    if mc > max_dimension:
        raise OracleBudgetError(
            f"fill dimension {mc} exceeds enumeration limit {max_dimension}"
        )
    for mask in range(1 << mc):
        subset = [i for i in range(mc) if (mask >> i) & 1]
        if is_valid_completion(g, subset):
            yield frozenset(subset)


def feasible_points(g: Graph, max_dimension: int = 20) -> list[Point]:
    """All chordal completions of g as 0/1 points over the fill space."""
    return [Point.from_fill(g, f) for f in enumerate_completions(g, max_dimension)]


def affine_rank(points) -> int:
    """Affine rank of a list of points, computed exactly over the integers.

    Point coordinates are rounded to integers (inputs are 0/1 vectors), the
    first point is subtracted from the rest, and the rank of the difference
    matrix is found by fraction-free Gaussian elimination.  The points must
    share one dimension.
    """
    pts = [p.values if isinstance(p, Point) else p for p in points]
    if not pts:
        raise ValueError("affine_rank needs at least one point")
    if len({len(p) for p in pts}) != 1:
        raise ValueError("affine_rank needs points of one dimension")
    base = [int(round(v)) for v in pts[0]]
    rows = []
    for p in pts[1:]:
        row = [int(round(v)) - b for v, b in zip(p, base)]
        if any(row):
            rows.append(row)
    return _int_rank(rows)


def _int_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by Bareiss fraction-free elimination."""
    if not rows:
        return 0
    m = [row[:] for row in rows]
    nr, nc = len(m), len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(nc):
        pivot = next((r for r in range(row, nr) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for r in range(row + 1, nr):
            for c in range(col + 1, nc):
                m[r][c] = (m[row][col] * m[r][c] - m[r][col] * m[row][c]) // prev
            m[r][col] = 0
        prev = m[row][col]
        rank += 1
        row += 1
        if row == nr:
            break
    return rank
