"""Command-line interface: solve / generate / check / heuristic / oracle."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import asdict

from . import __version__
from .graphs import is_valid_completion
from .heuristics import mdo_completion
from .instances import (
    gen_caveman,
    gen_grid,
    gen_mycielski,
    gen_queen,
    load_completion,
    load_instance,
    save_instance,
)
from .oracle import OracleBudgetError, brute_force_mccp
from .solver import OPTIMAL, SolverConfig, solve


def _add_solver_flags(sp: argparse.ArgumentParser) -> None:
    defaults = SolverConfig()
    sp.add_argument("--time-limit", type=float, default=None, metavar="S",
                    help="wall-clock limit in seconds")
    sp.add_argument("--node-limit", type=int, default=None, metavar="N")
    sp.add_argument("--cuts", default=",".join(defaults.families_enabled).lower(),
                    metavar="LIST",
                    help="comma-separated cut families to enable (default all)")
    sp.add_argument("--exact-i2", action="store_true",
                    help="run the exact I2 separator at fractional points "
                         "(needs i2 in --cuts)")
    sp.add_argument("--json-out", default=None, metavar="PATH",
                    help="also write the JSON result to this file")


def _solver_config(args) -> SolverConfig:
    families = tuple(f.strip().upper() for f in args.cuts.split(",") if f.strip())
    return SolverConfig(
        families_enabled=families,
        exact_i2=args.exact_i2,
        time_limit_s=args.time_limit,
        node_limit=args.node_limit,
    )


def cmd_solve(args) -> int:
    g = load_instance(args.instance)
    cfg = _solver_config(args)
    config = asdict(cfg)
    manifest = {
        "command": "solve",
        "instance": args.instance,
        "config": config,
        "version": __version__,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    result = solve(g, cfg)
    payload = {
        "instance": args.instance,
        "n": g.n,
        "m": g.m,
        "mc": g.mc,
        "status": result.status,
        "lb": result.lower_bound,
        "ub": result.upper_bound,
        "fill_edges": sorted([list(g.fill_pair(i)) for i in result.best_fill]),
        "nodes": result.nodes,
        "cuts": {fam.lower(): k for fam, k in result.cuts_by_family.items()},
        "time_s": round(result.wall_time_s, 3),
        "config": config,
        "manifest": manifest,
    }
    text = json.dumps(payload, indent=2)
    if args.json_out:  # before stdout, which a closed pipe can cut short
        with open(args.json_out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if result.status == OPTIMAL else 2


def cmd_generate(args) -> int:
    if args.family == "grid":
        g = gen_grid(args.p1, args.p2)
        default_name = f"grid{args.p1}_{args.p2}.el"
    elif args.family == "queen":
        g = gen_queen(args.p1, args.p2)
        default_name = f"queen{args.p1}_{args.p2}.el"
    elif args.family == "mycielski":
        g = gen_mycielski(args.k)
        default_name = f"myciel{args.k}.el"
    else:
        g = gen_caveman(args.p1, args.p2, args.gamma, seed=args.seed)
        default_name = f"caveman{args.p1}_{args.p2}_{args.gamma}_s{args.seed}.el"
    path = args.out or default_name
    save_instance(g, path)
    print(f"{g.n} {g.m}")
    print(f"wrote {path}", file=sys.stderr)
    return 0


def cmd_check(args) -> int:
    g = load_instance(args.instance)
    fill = load_completion(args.completion, g)
    ok = is_valid_completion(g, fill)
    verdict = "valid" if ok else "invalid"
    print(f"{verdict} chordal completion of size {len(fill)}")
    return 0 if ok else 1


def cmd_heuristic(args) -> int:
    g = load_instance(args.instance)
    fill = mdo_completion(g)
    print(f"size {len(fill)}")
    for i in sorted(fill):
        u, v = g.fill_pair(i)
        print(f"{u} {v}")
    return 0


def cmd_oracle(args) -> int:
    g = load_instance(args.instance)
    fill = brute_force_mccp(g, args.budget)
    print(f"optimum {len(fill)}")
    for i in sorted(fill):
        u, v = g.fill_pair(i)
        print(f"{u} {v}")
    return 0


OUT_HELP = "output file; a .col name gets DIMACS, any other an edge list"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fillin",
        description="Exact solver for the minimum chordal completion problem",
    )
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve an instance to optimality")
    sp.add_argument("instance", help="a .col (DIMACS) file, or an edge list by any other name")
    _add_solver_flags(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("generate", help="generate a benchmark instance")
    gen_sub = sp.add_subparsers(dest="family", required=True)
    for fam, helptext in (("grid", "grid graph"), ("queen", "queen graph")):
        fp = gen_sub.add_parser(fam, help=helptext)
        fp.add_argument("p1", type=int, help="rows")
        fp.add_argument("p2", type=int, help="columns")
        fp.add_argument("--out", default=None, help=OUT_HELP)
        fp.set_defaults(func=cmd_generate, family=fam)
    fp = gen_sub.add_parser("caveman", help="relaxed caveman graph")
    fp.add_argument("p1", type=int, help="clique size")
    fp.add_argument("p2", type=int, help="number of cliques")
    fp.add_argument("gamma", type=float, help="rewiring probability in (0, 1)")
    fp.add_argument("--out", default=None, help=OUT_HELP)
    fp.add_argument("--seed", type=int, default=0)
    fp.set_defaults(func=cmd_generate, family="caveman")
    fp = gen_sub.add_parser("mycielski", help="DIMACS Mycielski graph myciel<K>")
    fp.add_argument("k", type=int, metavar="K",
                    help="order: 2 gives C5, each step up applies the Mycielski transform")
    fp.add_argument("--out", default=None, help=OUT_HELP)
    fp.set_defaults(func=cmd_generate, family="mycielski")

    sp = sub.add_parser("check", help="validate a completion file")
    sp.add_argument("instance")
    sp.add_argument("completion", help="file with one fill edge `u v` per line")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("heuristic", help="minimum-degree-ordering completion")
    sp.add_argument("instance")
    sp.set_defaults(func=cmd_heuristic)

    sp = sub.add_parser("oracle", help="brute-force optimum (small instances)")
    sp.add_argument("instance")
    sp.add_argument("--budget", type=int, default=10**7,
                    help="maximum fill subsets to enumerate")
    sp.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): no error line, the exit status
        # of a process killed by SIGPIPE, and stdout sent to devnull so that
        # the flush at interpreter exit has nothing left to fail on
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OracleBudgetError, OSError) as exc:  # InstanceError, GraphError too
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
