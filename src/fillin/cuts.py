"""The four families of valid inequalities for chordal completions of cycles,
plus the lifting transformations that move cuts between graphs.

Every cut is a sparse integer inequality a.x >= b over a graph's fill-edge
space.  Pairs of the inequality's support that are real edges of the graph
are folded into the right-hand side as constants fixed at one, so a Cut
never carries coefficients outside the fill space.

The four cycle families share one shape, and _TABLE defines each once.  On
a sequence C of k distinct vertices a family's cut reads

    sum of x over its support >= m(k) (1 - sum over exterior pairs of (1 - x))

with x = 1 on real edges.  So each exterior pair missing from the graph
enters with coefficient -m(k), which switches the cut off unless it is
filled, and the rhs is m(k)(1 - |missing|) less the real support pairs.

  family  m(k)  support, as position pairs on C            a real support pair
  I1      k-3   every chord                                is refused
  I2      1     the chord across i, then every chord at i  is refused
  I3      2     the k chords joining positions two apart   counts as one (k >= 5)
  I4      k-4   every chord but those across j and {j, i}  counts as one (k >= 5)
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

from .graphs import Cycle, Graph, Point, edge

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


def _i2_support(k: int, i: int) -> tuple[tuple[int, int], ...]:
    """The chord across position i, then the chords at i in position order."""
    prev, nxt = (i - 1) % k, (i + 1) % k
    return ((prev, nxt),) + tuple((i, b) for b in range(k) if b not in (prev, i, nxt))


def _i4_support(k: int, i: int, j: int) -> tuple[tuple[int, int], ...]:
    """Every chord but the one across position j and the one joining j to i."""
    excluded = {edge((j - 1) % k, (j + 1) % k), edge(j, i)}
    return tuple(p for p in _interior_positions(k) if p not in excluded)


class _Family(NamedTuple):
    multiplier: Callable[[int], int]  # m(k)
    support: Callable[..., tuple]  # (k, *positions) -> position pairs
    refuses: str  # CutError's name for a real support pair; "" counts it as one
    min_k: int  # shortest cycle the family exists on
    screened: tuple  # the positions screen_cycle lists


_TABLE = {
    "I1": _Family(lambda k: k - 3, _interior_positions, "interior", 4, ()),
    "I2": _Family(lambda k: 1, _i2_support, "support", 4, (0,)),
    "I3": _Family(lambda k: 2, lambda k: tuple((j, (j + 2) % k) for j in range(k)),
                  "", 5, ()),
    "I4": _Family(lambda k: k - 4, _i4_support, "", 5, (2, 0)),
}


@lru_cache(maxsize=None)
def _support(family: str, k: int, positions: tuple) -> tuple[tuple[int, int], ...]:
    """The family's support on a k-cycle at the given positions."""
    return _TABLE[family].support(k, *positions)


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


def _check_length(family: str, k: int) -> None:
    min_k = _TABLE[family].min_k
    if k < min_k:
        raise FamilyInapplicableError(f"family {family} needs |C| >= {min_k}, got {k}")


def _build(family: str, g: Graph, c: Cycle, positions: tuple = ()) -> Cut:
    """The family's cut on c at the given positions (see _TABLE)."""
    spec = _TABLE[family]
    vs = c.vertices
    k = len(vs)
    m = spec.multiplier(k)
    t, n = g.fill_table, g.n
    coeffs: dict[int, int] = {}
    real = 0
    for a, b in _support(family, k, positions):
        u, v = vs[a], vs[b]
        f = t[u * n + v]
        if f >= 0:
            coeffs[f] = 1
        elif spec.refuses:
            raise CutError(f"{spec.refuses} pair {edge(u, v)} is an edge of the graph")
        else:
            real += 1
    missing = _missing_ext(g, vs)
    for f in missing:
        coeffs[f] = -m
    return Cut(g, coeffs, m * (1 - len(missing)) - real, family,
               cycle=c.canonical(), params=positions or None)


def cut_i1(g: Graph, c: Cycle) -> Cut:
    """Triangulating a k-cycle needs at least k-3 of its interior chords."""
    return _build("I1", g, c)


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
    return _build("I2", g, c, (i,))


def cut_i3(g: Graph, c: Cycle) -> Cut:
    """At least two of the k distance-2 chords of C must be present."""
    _check_length("I3", len(c))
    return _build("I3", g, c)


def cut_i4(g: Graph, c: Cycle, i: int, j: int) -> Cut:
    """All interior chords except {v_{j-1},v_{j+1}} and {v_j,v_i}: rhs k-4."""
    k = len(c)
    _check_length("I4", k)
    if not (0 <= i < k and 0 <= j < k):
        raise CutError(f"positions ({i}, {j}) invalid for a cycle of length {k}")
    if c.dist(i, j) < 2:
        raise FamilyInapplicableError(
            f"family I4 needs cycle distance >= 2 between positions, "
            f"got d({j},{i}) = {c.dist(i, j)}"
        )
    return _build("I4", g, c, (i, j))


@lru_cache(maxsize=None)
def _screen_plan(k: int, families: tuple) -> tuple:
    """screen_cycle's work on a k-cycle, reading its flat value list at
    a*k + b for the position pair (a, b): a getter of the exterior pairs, and
    (family, positions, m(k), getter of the support) of each family it
    screens, in table order."""
    plan = []
    for fam, spec in _TABLE.items():
        if fam not in families or k < spec.min_k:
            continue
        if "I1" in families and (fam, k) in (("I2", 4), ("I3", 5)):
            continue  # this cut is I1's
        support = [a * k + b for a, b in _support(fam, k, spec.screened)]
        plan.append((fam, spec.screened, spec.multiplier(k), itemgetter(*support)))
    return itemgetter(*(a * k + (a - 1) % k for a in range(k))), tuple(plan)


def screen_cycle(g: Graph, c: Cycle, vals: list, families=FAMILIES,
                 floor: float = 0.0) -> list:
    """(family, positions) of every enabled family's cut on the canonical
    cycle c whose violation at vals, computed straight from the fill table,
    exceeds floor; in the order I1, I2, I3, I4.

    vals are the point_values of a point.  One cut per family, at the
    table's screened positions: I2 at position 0 and I4 at (i=2, j=0), the
    arguments cut_i2 and cut_i4 take after the cycle.  With real edges
    counting as one and act = 1 - sum over exterior pairs of (1 - x), the
    violation is m(k) act - the sum over the support, the builders' rhs - a.x
    summed in another order, so it differs from evaluate by rounding error
    only.

    With I1 enabled, I2 is not listed on a 4-cycle nor I3 on a 5-cycle.
    Separation passes only cycles chordless in g, whose interior pairs are
    all fill pairs, and there those two cuts are I1 exactly.  Without I1
    they are listed like the others.
    """
    vs = c.vertices
    k = len(vs)
    exterior, plan = _screen_plan(k, tuple(families))
    t, n = g.fill_table, g.n
    x = [vals[f] if (f := t[r + v]) >= 0 else 1 for r in [u * n for u in vs] for v in vs]
    act = 1 - k + sum(exterior(x))
    return [(fam, positions) for fam, positions, m, support in plan
            if m * act - sum(support(x)) > floor]


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
    sparser = Graph(cut.graph.n, cut.graph.edges - set(missing), require_connected=False)
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
