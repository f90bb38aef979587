"""Benchmark instance generation (grid, queen, relaxed caveman, Mycielski)
and the only text readers: DIMACS .col and plain 0-based edge-list graphs,
and completion files.  A graph file's name picks its format, for reading
and writing alike; every error names the file and line at fault, and
every warning the file."""

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


def gen_mycielski(k: int) -> Graph:
    """The DIMACS Mycielski graph myciel<k>: C5 for k = 2, then the Mycielski
    transform M applied k - 2 times (myciel3 = M(C5), with 11 vertices).

    M(G) adds a twin u_i of each vertex v_i, joined to the neighbours of v_i,
    and one apex joined to every twin.  Vertices are numbered v, then u,
    then the apex.
    """
    if k < 2:
        raise InstanceError(f"mycielski needs k >= 2, got {k}")
    n, edges = 5, [(i, (i + 1) % 5) for i in range(5)]
    for _ in range(k - 2):
        edges = (edges + [(u, v + n) for u, v in edges] + [(u + n, v) for u, v in edges]
                 + [(n + i, 2 * n) for i in range(n)])
        n = 2 * n + 1
    return new_graph(n, [edge(u, v) for u, v in edges])


def _lines(text: str, comment: str):
    """(line number, fields) of each line that is neither blank nor a
    comment (first field starting with `comment`)."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if fields and not fields[0].startswith(comment):
            yield lineno, fields


def _bad(lineno: int, what: str, fields) -> InstanceError:
    """The error for a line: `line N: <what> '<its fields>'`."""
    return InstanceError(f"line {lineno}: {what} {' '.join(fields)!r}")


def _ints(fields, lineno: int) -> list[int]:
    """The fields as ints; InstanceError naming the line otherwise."""
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise _bad(lineno, "non-integer field in", fields) from None


def _pair(fields, n: int, base: int, lineno: int) -> tuple[int, int]:
    """The vertex pair `u v` of a line, numbered from base, as 0-based
    vertices of an n-vertex graph; InstanceError naming the line unless it
    is two integers naming distinct vertices of the graph."""
    if len(fields) != 2:
        raise _bad(lineno, "expected a pair `u v`, got", fields)
    u, v = _ints(fields, lineno)
    if not (base <= u < n + base and base <= v < n + base):
        raise _bad(lineno, "vertex out of range in", fields)
    if u == v:
        raise _bad(lineno, "self-loop in", fields)
    return u - base, v - base


def parse_dimacs(text: str) -> Graph:
    """Parse a DIMACS .col graph (1-based `e u v` lines after one p-line).

    Duplicate edges (including reversed duplicates) are tolerated with a
    warning; malformed input raises InstanceError with the line number.
    """
    n = None
    declared_m = None
    edges: set[tuple[int, int]] = set()
    dupes = 0
    for lineno, fields in _lines(text, "c"):
        if fields[0] == "p":
            if len(fields) != 4 or fields[1] not in ("edge", "edges", "col"):
                raise _bad(lineno, "malformed problem line", fields)
            if n is not None:
                raise _bad(lineno, "second problem line", fields)
            n, declared_m = _ints(fields[2:], lineno)
        elif fields[0] == "e":
            if n is None:
                raise InstanceError(f"line {lineno}: edge before problem line")
            e = edge(*_pair(fields[1:], n, 1, lineno))
            dupes += e in edges
            edges.add(e)
        else:
            raise _bad(lineno, "unrecognized line", fields)
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


def parse_edgelist(text: str) -> Graph:
    """Parse the internal edge-list format: `n m` then one `u v` per line,
    0-based.  As in parse_dimacs, duplicate edges (including reversed
    duplicates) are tolerated with a warning; malformed input raises
    InstanceError with the line number."""
    lines = list(_lines(text, "#"))
    if not lines:
        raise InstanceError("empty edge-list file")
    (lineno, header), *edge_lines = lines
    if len(header) != 2:
        raise _bad(lineno, "expected header `n m`, got", header)
    n, m = _ints(header, lineno)
    edges = {edge(*_pair(fields, n, 0, lineno)) for lineno, fields in edge_lines}
    if len(edge_lines) != m:
        raise InstanceError(f"header declares {m} edges, file lists {len(edge_lines)}")
    if len(edges) != m:
        warnings.warn(f"{m - len(edges)} duplicate edge line(s) ignored", stacklevel=2)
    return new_graph(n, sorted(edges))


def serialize_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def _parse_completion(text: str, g: Graph) -> frozenset[int]:
    """The fill indices of a completion: one 0-based fill pair `u v` per line."""
    fill = set()
    for lineno, fields in _lines(text, "#"):
        u, v = _pair(fields, g.n, 0, lineno)
        if g.has_edge(u, v):
            raise InstanceError(
                f"line {lineno}: ({u}, {v}) is already an edge of the graph")
        fill.add(g.fill_index(u, v))
    return frozenset(fill)


def _is_dimacs(path) -> bool:
    """The format choice: a .col name is DIMACS, any other an edge list."""
    return str(path).endswith(".col")


def _load(path, parse, *args):
    """parse(text of path, *args), with the path named in its errors and
    warnings.  A warning points at the code that called load_instance or
    load_completion."""
    with open(path) as fh:
        text = fh.read()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(text, *args)
        except (InstanceError, GraphError) as exc:
            raise type(exc)(f"{path}: {exc}") from None
    for w in caught:
        warnings.warn(f"{path}: {w.message}", w.category, stacklevel=3)
    return result


def load_instance(path) -> Graph:
    """Read a graph file in the format its name picks (see _is_dimacs)."""
    return _load(path, parse_dimacs if _is_dimacs(path) else parse_edgelist)


def load_completion(path, g: Graph) -> frozenset[int]:
    """Read a completion of g: the fill indices of its `u v` lines (0-based;
    blank lines and `#` comments skipped)."""
    return _load(path, _parse_completion, g)


def save_instance(g: Graph, path) -> None:
    """Write g in the format its name picks, as load_instance reads it back."""
    text = serialize_dimacs(g) if _is_dimacs(path) else serialize_edgelist(g)
    with open(path, "w") as fh:
        fh.write(text)
