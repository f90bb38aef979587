"""Benchmark instance generation (grid, queen, relaxed caveman) and file
formats: DIMACS .col and a plain 0-based edge list."""

from __future__ import annotations

import warnings

import numpy as np

from .graphs import Graph, GraphError, edge, new_graph


class InstanceError(ValueError):
    """Bad generator parameters or unparseable instance file."""


def gen_grid(rows: int, cols: int) -> Graph:
    """Grid graph: unit horizontal/vertical neighbours on a rows x cols board."""
    if rows < 2 or cols < 2:
        raise InstanceError(f"grid needs both dimensions >= 2, got {rows}x{cols}")
    def vid(r, c):
        return r * cols + c
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return new_graph(rows * cols, edges)


def gen_queen(rows: int, cols: int) -> Graph:
    """Queen graph: cells sharing a row, a column, or a diagonal are adjacent."""
    if rows < 2 or cols < 2:
        raise InstanceError(f"queen needs both dimensions >= 2, got {rows}x{cols}")
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    def vid(rc):
        return rc[0] * cols + rc[1]
    edges = []
    for i, (r1, c1) in enumerate(cells):
        for (r2, c2) in cells[i + 1:]:
            if r1 == r2 or c1 == c2 or abs(r1 - r2) == abs(c1 - c2):
                edges.append((vid((r1, c1)), vid((r2, c2))))
    return new_graph(rows * cols, edges)


def gen_caveman(alpha: int, beta: int, gamma: float, seed: int = 0,
                max_retries: int = 100) -> Graph:
    """Relaxed caveman graph: beta cliques of size alpha with random rewiring.

    Edges of the disjoint cliques are visited in canonical (sorted) order;
    with probability gamma one uniformly chosen endpoint is re-targeted to a
    uniformly chosen vertex of another clique.  Moves creating duplicates
    are rejected (self-loops cannot arise).  The whole construction repeats
    with fresh draws until connected, within the retry budget.

    RNG protocol: numpy default_rng(seed) (PCG64); per visited edge one
    uniform for the gamma test, then, if rewiring, one integer in {0, 1} for
    the endpoint and one integer index into the other-clique vertex list.
    """
    if alpha < 2 or beta < 1:
        raise InstanceError(f"caveman needs alpha >= 2 and beta >= 1, got {alpha}, {beta}")
    if not 0.0 < gamma < 1.0:
        raise InstanceError(f"rewiring probability must lie in (0, 1), got {gamma}")
    n = alpha * beta
    clique_of = [v // alpha for v in range(n)]
    base = []
    for b in range(beta):
        members = range(b * alpha, (b + 1) * alpha)
        base += [(u, v) for u in members for v in members if u < v]
    base.sort()
    rng = np.random.default_rng(seed)
    for _ in range(max_retries):
        edges: set[tuple[int, int]] = set()
        for (u, v) in base:
            new_edge = (u, v)
            if rng.random() < gamma:
                keep_u = int(rng.integers(0, 2)) == 0
                kept = u if keep_u else v
                others = [w for w in range(n) if clique_of[w] != clique_of[u]]
                if others:
                    target = others[int(rng.integers(0, len(others)))]
                    candidate = edge(kept, target)
                    if candidate not in edges:
                        new_edge = candidate
                    # else: rejected move, the original intra-clique edge
                    # stays (it can never collide with a cross-clique rewire)
            edges.add(new_edge)
        try:
            return new_graph(n, sorted(edges))
        except GraphError:
            continue
    raise InstanceError(
        f"could not generate a connected caveman graph in {max_retries} tries "
        f"(alpha={alpha}, beta={beta}, gamma={gamma}, seed={seed})"
    )


def parse_dimacs(text: str) -> Graph:
    """Parse a DIMACS .col graph (1-based `e u v` lines after one p-line).

    Duplicate edges (including reversed duplicates) are tolerated with a
    warning; malformed input raises InstanceError with the line number.
    """
    n = None
    declared_m = None
    edges: set[tuple[int, int]] = set()
    dupes = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if len(fields) != 4 or fields[1] not in ("edge", "edges", "col"):
                raise InstanceError(f"line {lineno}: malformed problem line {line!r}")
            if n is not None:
                raise InstanceError(f"line {lineno}: second problem line {line!r}")
            n, declared_m = _ints(fields[2:], lineno, line)
        elif fields[0] == "e":
            if n is None:
                raise InstanceError(f"line {lineno}: edge before problem line")
            if len(fields) != 3:
                raise InstanceError(f"line {lineno}: malformed edge line {line!r}")
            u, v = _ints(fields[1:], lineno, line)
            if not (1 <= u <= n and 1 <= v <= n):
                raise InstanceError(f"line {lineno}: vertex out of range in {line!r}")
            if u == v:
                raise InstanceError(f"line {lineno}: self-loop in {line!r}")
            e = edge(u - 1, v - 1)
            if e in edges:
                dupes += 1
            edges.add(e)
        else:
            raise InstanceError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise InstanceError("missing problem line `p edge N M`")
    if dupes:
        warnings.warn(f"{dupes} duplicate edge line(s) ignored", stacklevel=2)
    if declared_m is not None and len(edges) != declared_m:
        warnings.warn(
            f"problem line declares {declared_m} edges, found {len(edges)} after dedupe",
            stacklevel=2,
        )
    return new_graph(n, sorted(edges))


def serialize_dimacs(g: Graph, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines += [f"c {line}" for line in comment.splitlines()]
    lines.append(f"p edge {g.n} {g.m}")
    lines += [f"e {u + 1} {v + 1}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def _ints(fields, lineno: int, line: str) -> list[int]:
    """The fields as ints; InstanceError naming the file's line otherwise."""
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise InstanceError(f"line {lineno}: non-integer field in {line!r}") from None


def parse_edgelist(text: str) -> Graph:
    """Parse the internal edge-list format: `n m` then one `u v` per line,
    0-based.  As in parse_dimacs, duplicate edges (including reversed
    duplicates) are tolerated with a warning; malformed input raises
    InstanceError with the line number."""
    lines = [(lineno, ln) for lineno, ln in
             enumerate((raw.strip() for raw in text.splitlines()), start=1)
             if ln and not ln.startswith("#")]
    if not lines:
        raise InstanceError("empty edge-list file")
    (lineno, line), *edge_lines = lines
    header = line.split()
    if len(header) != 2:
        raise InstanceError(f"line {lineno}: expected header `n m`, got {line!r}")
    n, m = _ints(header, lineno, line)
    edges: set[tuple[int, int]] = set()
    for lineno, line in edge_lines:
        fields = line.split()
        if len(fields) != 2:
            raise InstanceError(f"line {lineno}: expected `u v`, got {line!r}")
        u, v = _ints(fields, lineno, line)
        if not (0 <= u < n and 0 <= v < n):
            raise InstanceError(f"line {lineno}: vertex out of range in {line!r}")
        if u == v:
            raise InstanceError(f"line {lineno}: self-loop in {line!r}")
        edges.add(edge(u, v))
    if len(edge_lines) != m:
        raise InstanceError(f"header declares {m} edges, file lists {len(edge_lines)}")
    if len(edges) != m:
        warnings.warn(f"{m - len(edges)} duplicate edge line(s) ignored", stacklevel=2)
    return new_graph(n, sorted(edges))


def serialize_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def load_instance(path: str) -> Graph:
    """Read a graph file, choosing the format from the extension (.col =
    DIMACS, anything else = edge list)."""
    with open(path) as fh:
        text = fh.read()
    if str(path).endswith(".col"):
        return parse_dimacs(text)
    return parse_edgelist(text)


def save_instance(g: Graph, path: str, fmt: str | None = None,
                  comment: str | None = None) -> None:
    if fmt is None:
        fmt = "col" if str(path).endswith(".col") else "el"
    if fmt == "col":
        text = serialize_dimacs(g, comment)
    elif fmt == "el":
        text = serialize_edgelist(g)
    else:
        raise InstanceError(f"unknown format {fmt!r} (use 'col' or 'el')")
    with open(path, "w") as fh:
        fh.write(text)
