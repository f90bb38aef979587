"""Instance sets of the benchmark workloads and the reference optimum of
every instance.

Each workload is one fixed instance set plus the solver configuration it
runs with.  ``build(workload, seed)`` returns the instances in solve order;
every instance carries the optimum its result is checked against.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import fillin

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "src" / "fillin" / "data"

WORKLOADS = ("ladder", "many-small", "exact-sep")

# many-small solves every graph of a fixed pool whose optima are stored in
# optima.json; --seed sets the order.  The seed does not pick the graphs: a
# seed-picked sample of a larger pool made the run's total work vary by 4%
# from seed to seed.
# The "heldout" pool is never used while tuning a change: a claim made on
# "tuning" is re-checked on it (run.py --pool heldout).
POOLS = {"tuning": 1612, "heldout": 1966}
POOL_SIZE = 3000
ORACLE_MAX_N = 8  # many-small graphs up to this size are checked by brute force
OPTIMA_FILE = HERE / "optima.json"

# Untraced runs solve an instance up to this many times back to back in each
# pass (run.py takes their median), so short instances get enough samples to
# ride out moments when the machine is slow.  many-small has no need: its
# 3000 instances are the repetitions.
REPEATS = {"ladder": 10, "many-small": 1, "exact-sep": 10}

# Weight of the tableau kernel in the speed correction of untraced runs (see
# speed.py): the LP's share of solve time in each workload's traced runs at
# the seed solver.  Fixed, so that the unit of the rescaled seconds does not
# move when a change moves the LP's share.
TABLEAU_WEIGHT = {"ladder": 0.93, "many-small": 0.36, "exact-sep": 0.17}


@dataclass
class Instance:
    name: str
    graph: fillin.Graph
    optimum: int | None  # None: computed by the brute-force oracle when verifying


def _ladder() -> list[Instance]:
    # The LP does 82-97% of the work on every non-trivial rung, so an LP or
    # node-count change shows here.  grid4_4 (optimum 18) is left out: at 74 s
    # a solve it is too slow to repeat for every check; it comes back once
    # the LP stops dominating.
    grids = [(3, 3, 5), (3, 4, 9), (3, 5, 13), (3, 6, 17)]
    queens = [(3, 3, 5), (3, 4, 12), (3, 5, 22), (4, 4, 26)]
    return ([Instance(f"grid{r}_{c}", fillin.gen_grid(r, c), opt) for r, c, opt in grids]
            + [Instance(f"queen{r}_{c}", fillin.gen_queen(r, c), opt) for r, c, opt in queens]
            + _myciel())


def _myciel() -> list[Instance]:
    return [Instance(name, fillin.load_instance(str(DATA / f"{name}.col")), opt)
            for name, opt in (("myciel3", 10), ("myciel4", 46))]


def _exact_sep() -> list[Instance]:
    # separate_i2_exact does 69-85% of the work here, so a separation change
    # shows; ladder and many-small never call it.
    picks = {"grid3_4", "grid3_5", "queen3_5", "queen4_4", "myciel3"}
    return [inst for inst in _ladder() if inst.name in picks]


def random_connected_edges(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """A connected graph with 8-12 vertices and edge density 0.2-0.5: a random
    spanning tree topped up with uniformly drawn extra edges."""
    n = rng.randint(8, 12)
    density = rng.uniform(0.2, 0.5)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = max(n - 1, round(density * len(pairs)))
    perm = list(range(n))
    rng.shuffle(perm)
    edges = {tuple(sorted((perm[i], perm[rng.randrange(i)]))) for i in range(1, n)}
    rest = [p for p in pairs if p not in edges]
    edges |= set(rng.sample(rest, m - len(edges)))
    return n, sorted(edges)


def pool_edges(pool: str, index: int) -> tuple[int, list[tuple[int, int]]]:
    return random_connected_edges(random.Random(f"{POOLS[pool]}:{index}"))


def _many_small(seed: int, pool: str) -> list[Instance]:
    # Thousands of tiny solves: each LP has only a few rows, so per-call cost
    # counts (LP ~45%, integer plus threshold separation ~40%).  This guards
    # against a change that wins on big LPs but pays a fixed cost per call,
    # and it is where Graph construction, chordality checks and root set-up
    # show.
    optima = json.loads(OPTIMA_FILE.read_text())[pool]
    out = []
    for i in random.Random(seed).sample(range(POOL_SIZE), POOL_SIZE):
        n, edges = pool_edges(pool, i)
        opt = None if n <= ORACLE_MAX_N else optima[i]
        out.append(Instance(f"{pool}{i}", fillin.new_graph(n, edges), opt))
    return out


def build(workload: str, seed: int, pool: str = "tuning"):
    """(instances, solver config) of a workload."""
    if workload == "ladder":
        return _ladder(), fillin.SolverConfig()
    if workload == "many-small":
        return _many_small(seed, pool), fillin.SolverConfig()
    if workload == "exact-sep":
        return _exact_sep(), fillin.SolverConfig(exact_i2=True)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
