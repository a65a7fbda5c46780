#!/usr/bin/env python3
"""Steadiness and A/B runner for the PS2 benchmark.

Run the benchmark on several seeds, alternating the order of workloads (and
of checkouts, when more than one is given) from one seed to the next:

    python3 perfbench/ab.py run --seeds 1-10 --out runs.json
    python3 perfbench/ab.py run --seeds 1-10 --repo ../parent --repo . \\
        --workloads lr_ctr,serve_zipf --out ab.json

Print, for every workload and end-to-end metric, the median and quartiles
and the spread (interquartile range over median) against the metric's bound
in BENCHMARK.json; a spread above a third of the bound is marked:

    python3 perfbench/ab.py report runs.json

Compare two sets of runs (two files, or two checkouts in one file): a
median that is worse than the base median by more than the bound is a
regression:

    python3 perfbench/ab.py compare base.json new.json
    python3 perfbench/ab.py compare ab.json --base ../parent --new .
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_one(repo, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(repo, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=repo)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else {"correct": False, "metrics": {}}
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return {"repo": repo, "workload": workload, "seed": seed,
            "trace": trace, "exit": proc.returncode, "wall_s": wall,
            **result}


def cmd_run(args):
    bench = load_benchmark()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    repos = [os.path.abspath(r) for r in (args.repo or [ROOT])]
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order_w = workloads if i % 2 == 0 else workloads[::-1]
        order_r = repos if i % 2 == 0 else repos[::-1]
        for workload in order_w:
            for repo in order_r:
                r = run_one(repo, workload, seed, seconds, args.trace)
                runs.append(r)
                print(f"seed {seed:3d} {workload:<16} {repo}: exit "
                      f"{r['exit']} correct {r['correct']} "
                      f"{r['wall_s']:.1f}s", flush=True)
    with open(args.out, "w") as f:
        json.dump(runs, f, indent=1)
    report(runs, bench)
    return 0 if all(r["exit"] == 0 for r in runs) else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def groups(runs, repo=None):
    out = {}
    for r in runs:
        if repo is not None and os.path.abspath(r["repo"]) != repo:
            continue
        for name, m in r["metrics"].items():
            out.setdefault((r["workload"], name), []).append(m["value"])
    return out


def report(runs, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for repo in sorted({os.path.abspath(r["repo"]) for r in runs}):
        print(f"\n{repo}")
        print(f"{'workload':<16} {'metric':<22} {'n':>3} {'median':>12} "
              f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        worst = {}
        for (workload, name), values in sorted(groups(runs, repo).items()):
            if name not in bounds:
                continue
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / abs(q2) if q2 else float("inf")
            mark = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                mark = " > bound/3" if spread <= bounds[name] else " > BOUND"
            worst[name] = max(worst.get(name, 0.0), spread)
            print(f"{workload:<16} {name:<22} {len(values):3d} {q2:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {spread:7.3f} "
                  f"{bounds[name]:6.2f}{mark}")
        print("\nlargest spread per metric:")
        for name, spread in sorted(worst.items(), key=lambda kv: -kv[1]):
            print(f"  {name:<22} {spread:7.3f} (bound {bounds[name]:.2f})")


def compare(base_runs, new_runs, bench, base_repo=None, new_repo=None):
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    base, new = groups(base_runs, base_repo), groups(new_runs, new_repo)
    regressions = 0
    print(f"{'workload':<16} {'metric':<22} {'base':>12} {'new':>12} "
          f"{'worse by':>9} {'bound':>6}")
    for key in sorted(set(base) & set(new)):
        workload, name = key
        if name not in metrics:
            continue
        b, n = statistics.median(base[key]), statistics.median(new[key])
        sign = 1 if metrics[name]["better"] == "lower" else -1
        worse = sign * (n - b) / abs(b) if b else 0.0
        status = "REGRESSED" if worse > metrics[name]["bound"] else ""
        regressions += bool(status)
        print(f"{workload:<16} {name:<22} {b:12.6g} {n:12.6g} {worse:9.3f} "
              f"{metrics[name]['bound']:6.2f} {status}")
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.strip().splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default="")
    p.add_argument("--repo", action="append",
                   help="checkout to benchmark (repeatable; default: this one)")
    p.add_argument("--seconds", type=int, default=0,
                   help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--out", required=True)
    p = sub.add_parser("report")
    p.add_argument("file")
    p = sub.add_parser("compare")
    p.add_argument("files", nargs="+")
    p.add_argument("--base", help="checkout whose runs are the base")
    p.add_argument("--new", help="checkout whose runs are compared")
    args = parser.parse_args()

    bench = load_benchmark()
    if args.cmd == "run":
        return cmd_run(args)
    if args.cmd == "report":
        with open(args.file) as f:
            report(json.load(f), bench)
        return 0
    runs = []
    for path in args.files:
        with open(path) as f:
            runs.append(json.load(f))
    if len(runs) == 2:
        return compare(runs[0], runs[1], bench)
    if not (args.base and args.new):
        sys.exit("compare: give two files, or one file with --base and --new")
    return compare(runs[0], runs[0], bench, os.path.abspath(args.base),
                   os.path.abspath(args.new))


if __name__ == "__main__":
    sys.exit(main())
