"""The four families of valid inequalities for chordal completions of cycles,
plus the lifting transformations that move cuts between graphs.

Every cut is a sparse integer inequality a.x >= b over a graph's fill-edge
space.  Pairs of the inequality's support that are real edges of the graph
are folded into the right-hand side as constants fixed at one, so a Cut
never carries coefficients outside the fill space.

Family summary, for a sequence C of k distinct vertices with activation set
F = exterior pairs of C missing from the graph (each such f enters with a
negative coefficient that switches the cut off unless x_f = 1):

  I1  all interior chords of C, rhs k-3 (needs k >= 4 and a fill interior)
  I2  the short chord across position i plus all chords at v_i, rhs 1
  I3  the k chords joining vertices two apart on C, rhs 2 (k >= 5)
  I4  all interior chords except two designated ones, rhs k-4 (k >= 5)
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .graphs import Cycle, Graph, GraphError, Point, edge

FAMILIES = ("I1", "I2", "I3", "I4")


class CutError(ValueError):
    """Raised when a cut cannot be built from the given cycle/parameters."""


class FamilyInapplicableError(CutError):
    """Raised when a family does not exist for the given cycle length."""


class Cut:
    """Sparse inequality sum_f coeffs[f] * x_f >= rhs over g's fill space."""

    __slots__ = ("graph", "coeffs", "rhs", "family", "cycle", "params", "_key")

    def __init__(self, graph: Graph, coeffs: dict[int, int], rhs: int,
                 family: str, cycle: Cycle | None = None, params=None):
        mc = graph.mc
        for f, a in coeffs.items():
            if not 0 <= f < mc:
                raise CutError(f"coefficient index {f} outside fill space")
            if not isinstance(a, int):
                raise CutError(f"coefficient for index {f} is not an integer")
        self.graph = graph
        self.coeffs = {f: a for f, a in sorted(coeffs.items()) if a != 0}
        self.rhs = int(rhs)
        self.family = family
        self.cycle = cycle
        self.params = params
        self._key = (tuple(self.coeffs.items()), self.rhs)

    def key(self) -> tuple:
        """Structural identity: coefficient multiset and rhs, not provenance."""
        return self._key

    def __eq__(self, other):
        return isinstance(other, Cut) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        terms = " + ".join(f"{a}*x{self.graph.fill_pair(f)}" for f, a in self.coeffs.items())
        return f"Cut[{self.family}] {terms} >= {self.rhs}"

    def to_line(self) -> str:
        """Serialize as `family rhs k idx:coef ...` with exact integers."""
        parts = [self.family, str(self.rhs), str(len(self.coeffs))]
        parts += [f"{f}:{a}" for f, a in self.coeffs.items()]
        return " ".join(parts)

    @staticmethod
    def from_line(graph: Graph, line: str) -> "Cut":
        fields = line.split()
        family, rhs, k = fields[0], int(fields[1]), int(fields[2])
        coeffs = {}
        for item in fields[3:3 + k]:
            f, a = item.split(":")
            coeffs[int(f)] = int(a)
        return Cut(graph, coeffs, rhs, family)


def point_values(x: Point) -> list:
    """The coordinates of x as Python numbers for evaluate: ints when x is
    integral, so that violations are exact, floats otherwise."""
    if x.is_integral():
        return np.rint(x.values).astype(int).tolist()
    return x.values.tolist()


def evaluate(cut: Cut, x: Point | list) -> float:
    """Violation rhs - a.x; positive means x violates the cut.

    Exact integer arithmetic is used whenever the point is integral.  x is
    a Point, or the list point_values returned for one: a caller evaluating
    many cuts at one point decides its integrality once that way.
    """
    if len(x) != cut.graph.mc:
        raise CutError(
            f"point has dimension {len(x)}, cut lives in dimension {cut.graph.mc}"
        )
    vals = x if isinstance(x, list) else point_values(x)
    return cut.rhs - sum(a * vals[f] for f, a in cut.coeffs.items())


@lru_cache(maxsize=None)
def _interior_positions(k: int) -> tuple[tuple[int, int], ...]:
    """Position pairs (a, b), a < b, at cyclic distance >= 2 on a k-cycle."""
    return tuple((a, b) for a in range(k) for b in range(a + 2, k)
                 if b - a != k - 1)


def _missing_ext(g: Graph, vs: tuple) -> list[int]:
    """Fill indices of the exterior pairs of vs that are not edges of g
    (the activation set F)."""
    t, n = g.fill_table, g.n
    out = []
    prev = vs[-1]
    for v in vs:
        f = t[prev * n + v]
        if f >= 0:
            out.append(f)
        prev = v
    return out


def _support_fill(g: Graph, pairs) -> tuple[dict[int, int], int]:
    """Unit coefficients on the fill pairs; real pairs count as constant one."""
    t, n = g.fill_table, g.n
    coeffs: dict[int, int] = {}
    constant = 0
    for u, v in pairs:
        f = t[u * n + v]
        if f < 0:
            constant += 1
        else:
            coeffs[f] = coeffs.get(f, 0) + 1
    return coeffs, constant


def _all_fill(g: Graph, pairs, what: str) -> dict[int, int]:
    """Unit coefficients on pairs that must all be fill pairs of g."""
    t, n = g.fill_table, g.n
    coeffs: dict[int, int] = {}
    for u, v in pairs:
        f = t[u * n + v]
        if f < 0:
            raise CutError(f"{what} pair {edge(u, v)} is an edge of the graph")
        coeffs[f] = 1
    return coeffs


def cut_i1(g: Graph, c: Cycle) -> Cut:
    """Triangulating a k-cycle needs at least k-3 of its interior chords."""
    k = len(c)
    vs = c.vertices
    coeffs = _all_fill(g, ((vs[a], vs[b]) for a, b in _interior_positions(k)),
                       "interior")
    missing = _missing_ext(g, vs)
    for f in missing:
        coeffs[f] = -(k - 3)
    rhs = (k - 3) * (1 - len(missing))
    return Cut(g, coeffs, rhs, "I1", cycle=c.canonical())


def cut_i2(g: Graph, c: Cycle, i: int) -> Cut:
    """Either the chord across v_i or some chord at v_i must be added.

    Support: the pair {v_{i-1}, v_{i+1}} plus every interior pair containing
    v_i but neither of its cycle neighbours.  Support pairs must be fill
    edges; other interior pairs of the sequence may be real edges (the cut
    is then still valid, those pairs simply do not appear).
    """
    k = len(c)
    if not 0 <= i < k:
        raise CutError(f"position {i} invalid for a cycle of length {k}")
    vs = c.vertices
    vi, prev, nxt = vs[i], vs[(i - 1) % k], vs[(i + 1) % k]
    support = [(prev, nxt)]
    support += [(vi, v) for v in vs if v not in (vi, prev, nxt)]
    coeffs = _all_fill(g, support, "support")
    missing = _missing_ext(g, vs)
    for f in missing:
        coeffs[f] = -1
    rhs = 1 - len(missing)
    return Cut(g, coeffs, rhs, "I2", cycle=c.canonical(), params=(i,))


def cut_i3(g: Graph, c: Cycle) -> Cut:
    """At least two of the k distance-2 chords of C must be present."""
    k = len(c)
    if k < 5:
        raise FamilyInapplicableError(f"family I3 needs |C| >= 5, got {k}")
    vs = c.vertices
    coeffs, constant = _support_fill(g, ((vs[j], vs[(j + 2) % k]) for j in range(k)))
    missing = _missing_ext(g, vs)
    for f in missing:
        coeffs[f] = -2
    rhs = 2 * (1 - len(missing)) - constant
    return Cut(g, coeffs, rhs, "I3", cycle=c.canonical())


def cut_i4(g: Graph, c: Cycle, i: int, j: int) -> Cut:
    """All interior chords except {v_{j-1},v_{j+1}} and {v_j,v_i}: rhs k-4."""
    k = len(c)
    if k < 5:
        raise FamilyInapplicableError(f"family I4 needs |C| >= 5, got {k}")
    if not (0 <= i < k and 0 <= j < k):
        raise CutError(f"positions ({i}, {j}) invalid for a cycle of length {k}")
    if c.dist(i, j) < 2:
        raise FamilyInapplicableError(
            f"family I4 needs cycle distance >= 2 between positions, "
            f"got d({j},{i}) = {c.dist(i, j)}"
        )
    vs = c.vertices
    excluded = {edge((j - 1) % k, (j + 1) % k), edge(j, i)}
    coeffs, constant = _support_fill(
        g, ((vs[a], vs[b]) for a, b in _interior_positions(k)
            if (a, b) not in excluded))
    missing = _missing_ext(g, vs)
    for f in missing:
        coeffs[f] = -(k - 4)
    rhs = (k - 4) * (1 - len(missing)) - constant
    return Cut(g, coeffs, rhs, "I4", cycle=c.canonical(), params=(i, j))


def screen_cycle(g: Graph, c: Cycle, vals: list, families=FAMILIES,
                 floor: float = 0.0) -> list:
    """(family, positions) of every enabled family's cut on the canonical
    cycle c whose violation at vals, computed straight from the fill table,
    exceeds floor; in the order I1, I2, I3, I4.

    vals are the point_values of a point.  One cut per family: I2 at
    position 0 and I4 at (i=2, j=0), the arguments cut_i2 and cut_i4 take
    after the cycle.  With real edges counting as one and act = 1 - sum over
    exterior pairs of (1 - x), the violations are: I1 (k-3) act - sum of the
    interior pairs; I2 act - sum of its support, {v_{k-1}, v_1} and the
    pairs of v_0 but its cycle neighbours; I3 2 act - sum of the distance-2
    chords; I4 (k-4) act - sum of the interior pairs but {v_{k-1}, v_1} and
    {v_0, v_2}.  They are the builders' rhs - a.x summed in another order,
    so they differ from evaluate by rounding error only.

    With I1 enabled, I2 is not listed on a 4-cycle nor I3 on a 5-cycle.
    Separation passes only cycles chordless in g, whose interior pairs are
    all fill pairs, and there those two cuts are I1 exactly.  Without I1
    they are listed like the others.
    """
    vs = c.vertices
    k = len(vs)
    t, n = g.fill_table, g.n
    x = [[vals[f] if (f := t[r + v]) >= 0 else 1 for v in vs]
         for r in [u * n for u in vs]]
    act = 1 - sum(1 - x[a][a - 1] for a in range(k))
    out = []
    i1 = "I1" in families
    if i1 or "I4" in families:
        interior = sum(x[a][b] for a, b in _interior_positions(k))
    if i1 and (k - 3) * act - interior > floor:
        out.append(("I1", ()))
    if "I2" in families and not (i1 and k == 4):
        row = x[0]
        support = x[k - 1][1] + sum(row) - row[k - 1] - row[0] - row[1]
        if act - support > floor:
            out.append(("I2", (0,)))
    if k < 5:
        return out
    if "I3" in families and not (i1 and k == 5):
        if 2 * act - sum(x[j][j - 2] for j in range(k)) > floor:
            out.append(("I3", ()))
    if "I4" in families:
        support = interior - x[k - 1][1] - x[0][2]
        if (k - 4) * act - support > floor:
            out.append(("I4", (2, 0)))
    return out


def lift_zero_pad(cut: Cut, sub_to_super: dict[int, int], super_g: Graph) -> Cut:
    """Re-index a cut valid on an induced subgraph into a supergraph.

    Coefficients keep their values at the mapped fill indices; everything
    outside the image stays at zero and the rhs is unchanged.
    """
    if len(set(sub_to_super.values())) != len(sub_to_super):
        raise CutError("vertex map must be injective")
    coeffs = {}
    for f, a in cut.coeffs.items():
        u, v = cut.graph.fill_pair(f)
        try:
            mu, mv = sub_to_super[u], sub_to_super[v]
        except KeyError as missing:
            raise CutError(f"vertex {missing} not mapped") from None
        if super_g.has_edge(mu, mv):
            raise CutError(
                f"mapped pair ({mu}, {mv}) is an edge of the supergraph; "
                "the subgraph is not induced"
            )
        coeffs[super_g.fill_index(mu, mv)] = a
    return Cut(super_g, coeffs, cut.rhs, "LIFTED", cycle=cut.cycle, params=cut.params)


def lift_conditional(cut: Cut, missing_pairs) -> Cut:
    """Make a nonnegative cut conditional on a set of edges being filled.

    The given pairs are removed from the cut's graph; the resulting cut on
    the sparser graph reads a.x - b * sum_{f in missing} x_f >= b(1 - |missing|),
    so it is trivially satisfied unless every missing edge is present.
    """
    if any(a < 0 for a in cut.coeffs.values()):
        raise CutError("conditional lifting requires nonnegative coefficients")
    missing = [edge(*p) for p in missing_pairs]
    if not missing:
        return Cut(cut.graph, dict(cut.coeffs), cut.rhs, cut.family,
                   cycle=cut.cycle, params=cut.params)
    for p in missing:
        if p not in cut.graph.edges:
            raise CutError(f"pair {p} is not an edge of the cut's graph")
    sparser = Graph(
        cut.graph.n,
        [e for e in cut.graph.edges if e not in set(missing)],
        require_connected=False,
    )
    b = cut.rhs
    coeffs = {}
    for f, a in cut.coeffs.items():
        coeffs[sparser.fill_index(*cut.graph.fill_pair(f))] = a
    for p in missing:
        f = sparser.fill_index(*p)
        coeffs[f] = coeffs.get(f, 0) - b
    rhs = b * (1 - len(missing))
    return Cut(sparser, coeffs, rhs, "LIFTED", cycle=cut.cycle, params=cut.params)


def lift_chord(cut: Cut, chord: int) -> Cut:
    """Turn a facet of the sub-cycle closed by a chord into a'.x >= b*x_chord.

    The chord is a fill index of the target graph; it must not collide with
    the cut's support.
    """
    if any(a < 0 for a in cut.coeffs.values()):
        raise CutError("chord lifting requires nonnegative coefficients")
    if chord in cut.coeffs:
        raise CutError(
            f"chord index {chord} collides with the cut's support"
        )
    coeffs = dict(cut.coeffs)
    if cut.rhs != 0:
        coeffs[chord] = -cut.rhs
    return Cut(cut.graph, coeffs, 0, "LIFTED", cycle=cut.cycle, params=cut.params)
