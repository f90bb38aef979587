"""fillin benchmark: time to a proven optimum on a fixed instance set.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; fillin is imported from its src/.  Load
shape: a closed loop with one client.  The process solves the workload's
instances one after another with the public ``fillin.solve`` (one pass), at
least MIN_PASSES times and until --seconds of solving are spent.  Solves
are timed by speed.SpeedClock.  Each time metric is computed per pass and
reported as its median over the passes.  Every solve is then checked in an
untimed pass.

--trace 0 reports the end-to-end metrics.  --trace 1 runs untraced passes,
then traced passes that wrap each layer (see layers.py), and reports the
per-layer metrics.  The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it holds
provenance and raw wall times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import namedtuple
from dataclasses import replace
from importlib import metadata
from pathlib import Path
from time import perf_counter

# one single-threaded process: keep BLAS from starting worker threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
MIN_PASSES = 2
REPEAT_S = 0.5  # see run_pass


def load_fillin():
    """Put the checkout's src/ first on the path and import the workloads."""
    if not (ROOT / "src" / "fillin" / "__init__.py").is_file():
        sys.exit(f"run.py: no fillin package under {ROOT / 'src'}; "
                 "run from the root of a repository checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    return workloads


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("ladder", "many-small", "exact-sep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pool", choices=("tuning", "heldout"), default="tuning",
                    help="many-small graph pool; heldout is for checking claims")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup_seconds(args) -> tuple[float, float]:
    """Seconds from starting a fresh process to the moment it could start
    its first solve (interpreter start, fillin import, instance set built):
    rescaled by the interpreter kernel the process runs right after, and wall."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--pool", args.pool]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        wall = perf_counter() - t0
        kernel = proc.stdout.readline()
        proc.stdout.read()
    if proc.returncode != 0 or ready.strip() != "ready":
        sys.exit(f"run.py: set-up probe failed (exit code {proc.returncode})")
    from speed import INTERPRETER_REFERENCE_S
    return wall * INTERPRETER_REFERENCE_S / float(kernel), wall


Outcome = namedtuple("Outcome", "status lower_bound upper_bound nodes total_cuts best_fill")


def run_pass(instances, cfg, solve, repeats: int, clock):
    """Solve every instance once, or back to back up to `repeats` times while
    its time in this pass stays under REPEAT_S.  Returns, per instance, the
    seconds of each solve as the clock reports them, their wall seconds and
    the Outcome of each solve (None if it raised); outcomes are kept small so
    that holding them does not show in peak RSS."""
    out = []
    for inst in instances:
        times, walls, outcomes = [], [], []
        while not times or (len(times) < repeats and sum(walls) < REPEAT_S):
            try:
                res, t, wall = clock.time(solve, inst.graph, cfg)
            except Exception:  # a solve that raises is a failed instance, not a failed run
                traceback.print_exc()
                res, t, wall = None, 0.0, 0.0
            times.append(t)
            walls.append(wall)
            outcomes.append(res and Outcome(res.status, res.lower_bound, res.upper_bound,
                                            res.nodes, res.total_cuts, tuple(res.best_fill)))
        out.append((times, walls, outcomes))
    return out


def measure(instances, cfg, seconds: float, solve, repeats: int, min_passes: int,
            clock, between=lambda: None):
    """Passes until `seconds` of solving are spent, at least min_passes; a
    pass starts only if it is expected to fit.  between() runs before each
    pass, outside the measured time."""
    passes, spent = [], 0.0
    while True:
        between()
        t0 = perf_counter()
        with clock:
            passes.append(run_pass(instances, cfg, solve, repeats, clock))
        last = perf_counter() - t0
        spent += last
        if len(passes) >= min_passes and spent + last > seconds:
            return passes


def pass_stat(passes, stat, column: int = 0) -> float:
    """Median over passes of stat(the per-instance times of one pass); an
    instance solved several times in a pass counts with its median there
    (column 0: clock seconds, 1: wall seconds).  Taking the statistic per
    pass keeps it from depending on how many passes fit in the run."""
    return statistics.median(stat([statistics.median(inst[column]) for inst in p])
                             for p in passes)


def instance_times(passes, column: int = 0) -> list[float]:
    """Each instance's median solve time over all its solves in all passes
    (column 0: clock seconds, 1: wall seconds)."""
    return [statistics.median(t for inst in col for t in inst[column]) for col in zip(*passes)]


def check(g, res, reference: int, nx) -> str | None:
    """Why res is not a verified optimum of g, or None if it is."""
    if res is None:
        return "solve raised"
    if res.status != "OPTIMAL" or res.lower_bound != res.upper_bound:
        return f"status {res.status}, lb {res.lower_bound}, ub {res.upper_bound}"
    if not all(0 <= f < g.mc for f in res.best_fill):
        return "fill index out of range"
    pairs = {g.fill_pair(f) for f in res.best_fill}
    if len(pairs) != len(res.best_fill) or any(p in g.edges for p in pairs):
        return "a fill index names an edge of the graph"
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    h.add_edges_from(pairs)
    if not nx.is_chordal(h):
        return "graph plus fill is not chordal"
    if len(pairs) != res.upper_bound or res.upper_bound != reference:
        return f"fill size {len(pairs)}, ub {res.upper_bound}, reference optimum {reference}"
    return None


def verify(instances, passes) -> tuple[list[int], int, dict]:
    """Check every solve of every pass.  Returns the reference optima, the
    number of solves and {(pass, instance, repeat): why} for each solve that
    did not return a verified optimum."""
    import networkx as nx
    from fillin import brute_force_mccp
    optima, solves, failures = [], 0, {}
    for i, inst in enumerate(instances):
        ref = inst.optimum
        if ref is None:
            ref = len(brute_force_mccp(inst.graph))
        optima.append(ref)
        for k, p in enumerate(passes):
            for r, res in enumerate(p[i][2]):
                solves += 1
                why = check(inst.graph, res, ref, nx)
                if why is not None:
                    failures[k, i, r] = f"{inst.name}: {why}"
    return optima, solves, failures


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def blas_info() -> dict:
    """BLAS library numpy was built with and the threads it runs."""
    import ctypes
    import numpy as np
    info = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["library"] = "unknown"
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "networkx"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(), **versions,
        "blas": blas_info(), "git_commit": git_commit(),
        "workload": args.workload, "seed": args.seed, "pool": args.pool,
        "seconds": args.seconds, "trace": args.trace,
    }


def root_gaps(instances, cfg, optima, tracer) -> tuple[int, int]:
    """(optimum - root lower bound, root incumbent - optimum), summed; the
    root bound comes from an untraced node_limit=1 solve."""
    import fillin
    root_cfg = replace(cfg, node_limit=1)
    gap = sum(opt - fillin.solve(inst.graph, root_cfg).lower_bound
              for inst, opt in zip(instances, optima))
    ub_gap = sum(tracer.root_ub[inst.graph] - opt
                 for inst, opt in zip(instances, optima) if inst.graph in tracer.root_ub)
    return gap, ub_gap


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        workloads = load_fillin()
        workloads.build(args.workload, args.seed, args.pool)
        print("ready", flush=True)
        from speed import setup_speed
        print(setup_speed(), flush=True)
        return 0

    workloads = load_fillin()
    import fillin
    from speed import SpeedClock, WallClock
    t0 = perf_counter()
    instances, cfg = workloads.build(args.workload, args.seed, args.pool)
    instances_s = perf_counter() - t0

    # set-up probes are spread over the run, between passes, so that they
    # sample the machine at different moments
    setup = []
    wanted = 0 if args.trace else SETUP_PROBES

    def probe():
        if len(setup) < wanted:
            setup.append(setup_seconds(args))

    if args.trace:
        # one solve per instance per pass, so layer counts are per pass; the
        # untraced and traced phases share the measuring time, and wall time
        # keeps the speed kernel out of the layer spans
        seconds, repeats, min_passes, clock = args.seconds / 2, 1, 1, WallClock()
    else:
        seconds, repeats, min_passes = args.seconds, workloads.REPEATS[args.workload], MIN_PASSES
        clock = SpeedClock(workloads.TABLEAU_WEIGHT[args.workload])
    passes = measure(instances, cfg, seconds, fillin.solve, repeats, min_passes, clock,
                     between=probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup) < wanted:
        probe()
    per_instance = instance_times(passes)
    solve_s = pass_stat(passes, sum)

    traced = []
    if args.trace:
        from layers import Tracer
        tracer = Tracer()
        with tracer:
            traced = measure(instances, cfg, seconds,
                             lambda g, c: tracer.solve(fillin.solve, g, c), repeats, min_passes,
                             clock)

    optima, attempted, failures = verify(instances, passes + traced)
    first = [outcomes[0] for _, _, outcomes in passes[0]]
    for k, p in enumerate(traced, start=len(passes)):
        for i, (inst, a) in enumerate(zip(instances, first)):
            b = p[i][2][0]
            if a and b and (a.nodes, a.upper_bound) != (b.nodes, b.upper_bound):
                failures.setdefault((k, i, 0), f"{inst.name}: traced solve differs: nodes "
                                    f"{a.nodes}/{b.nodes}, optimum {a.upper_bound}/{b.upper_bound}")

    nodes = sum(r.nodes for r in first if r is not None)
    if args.trace:
        gap, ub_gap = root_gaps(instances, cfg, optima, tracer)
        pool_cuts = sum(r.total_cuts for r in first if r is not None)
        traced_total = sum(t for p in traced for ts, _, _ in p for t in ts)
        metrics = tracer.metrics(len(traced), traced_total, gap, ub_gap, nodes, pool_cuts)
        metrics["instances.s"] = (instances_s, "s")
        metrics["trace.overhead"] = (pass_stat(traced, sum) / solve_s - 1, "ratio")
        absent = sorted(tracer.absent)
    else:
        metrics = {
            "solve_s": (solve_s, "s"),
            "instance_s.p50": (pass_stat(passes, lambda t: quantile(t, 0.50)), "s"),
            "instance_s.p99": (pass_stat(passes, lambda t: quantile(t, 0.99)), "s"),
            "setup_s": (statistics.median(t for t, _ in setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        absent = []

    for msg in list(failures.values())[:20]:
        print("FAILED", msg, file=sys.stderr)
    failed_frac = len(failures) / attempted
    print(f"# {args.workload} seed={args.seed} pool={args.pool} instances={len(instances)} "
          f"solves={attempted} passes={len(passes)} traced_passes={len(traced)} nodes={nodes} "
          f"failed_frac={failed_frac:.6g}" + (f" absent_layers={','.join(absent)}" if absent else ""))
    for name, (value, unit) in metrics.items():
        print(f"#   {name:<26} {value:.6g} {unit}")
    record = {
        "provenance": provenance(args), "passes": len(passes),
        "wall_solve_s": pass_stat(passes, sum, 1),
        "wall_setup_s": [w for _, w in setup],
        "failed_frac": failed_frac, "absent_layers": absent,
    }
    if len(instances) <= 100:
        record["instances"] = {
            inst.name: {"s": per_instance[i],
                        "nodes": r.nodes if r else None, "optimum": opt}
            for i, (inst, r, opt) in enumerate(zip(instances, first, optima))}
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
