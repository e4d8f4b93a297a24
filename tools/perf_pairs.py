#!/usr/bin/env python3
"""Compares perfbench's end-to-end metrics between a parent revision and
the working tree over alternating pairs of runs.

    python3 tools/perf_pairs.py --parent HEAD --pairs 10 --first-seed 201

Run it from the root of a checkout. It builds perfbench twice, each into its
own CARGO_TARGET_DIR under .bench_build/: once for the parent revision,
checked out as a detached git worktree under .bench_build/ (kept for reuse;
`git worktree remove` deletes it), and once for the working tree. Then, for
each workload in BENCHMARK.json, it runs the pairs untraced at the
benchmark's run_seconds. Pair i uses seed first_seed + i for both sides, and
the side that runs first alternates. Every run is printed to stderr as it
finishes. The summary on stdout gives, per end-to-end metric: both sides'
median and quartiles, the change's wins (ties count for neither side), the
ratio change / parent, and a verdict against the metric's bound:

    improved      the change wins at least 9 of 10 pairs and its median beats
                  the parent's by more than the parent's interquartile range
    unresolved    the parent's interquartile range exceeds the bound, so the
                  runs cannot tell a change within the bound from one outside
    worse         the change's median is worse by more than the bound
    within bound  otherwise

The exit status is 1 when any run is not "correct" or reports failed > 0,
2 when a build fails, and 0 otherwise. The script only reads
BENCHMARK.json and perfbench/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
BENCH_DIR = os.path.join(ROOT, ".bench_build")


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def parent_tree(rev):
    """Returns a worktree checked out at `rev`, creating it when missing."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    tree = os.path.join(BENCH_DIR, "parent-" + sha[:12])
    if not os.path.isdir(tree):
        git("worktree", "add", "--detach", tree, sha)
    return tree, sha


def build(tree, target):
    """Configures (once) and builds perfbench from `tree` into `target`."""
    steps = []
    if not os.path.exists(os.path.join(target, "Makefile")):
        steps.append(["cmake", "-S", os.path.join(tree, "perfbench"), "-B",
                      target, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", target, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def run_once(tree, target, workload, seed, seconds):
    """One untraced perfbench run; returns (JSON result or None, stderr)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.stderr
    except (IndexError, ValueError):
        return None, proc.stderr


def healthy(result):
    return (result is not None and result.get("correct") is True and
            result.get("failed") == 0)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Returns (wins, verdict) for paired runs of one metric."""
    lower = better == "lower"
    wins = sum(1 for p, c in zip(parent, change)
               if (c < p if lower else c > p))
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gain = (pmed - cmed) if lower else (cmed - pmed)
    if wins * 10 >= 9 * len(parent) and gain > p3 - p1:
        return wins, "improved"
    if pmed != 0 and (p3 - p1) / abs(pmed) > bound:
        return wins, "unresolved"
    if pmed != 0 and -gain / abs(pmed) > bound:
        return wins, "worse"
    return wins, "within bound"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD",
                        help="revision to compare against (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=201)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seconds", type=int,
                        help="run length (default: BENCHMARK.json's "
                             "run_seconds; shorter runs are for trying the "
                             "script, not for claims)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    tree, sha = parent_tree(args.parent)
    sides = {
        "parent": (tree, os.path.join(BENCH_DIR, "pairs-parent-" + sha[:12])),
        "change": (ROOT, os.path.join(BENCH_DIR, "pairs-change")),
    }
    for name, (src, target) in sides.items():
        print("perf_pairs: building %s perfbench" % name, file=sys.stderr)
        if not build(src, target):
            print("perf_pairs: %s build failed" % name, file=sys.stderr)
            return 2

    all_healthy = True
    print("parent %s vs working tree; %d pairs per workload, seeds %d-%d, "
          "%d s per run" % (sha[:12], args.pairs, args.first_seed,
                            args.first_seed + args.pairs - 1, seconds))
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                              "parent")
            for side in order:
                result, log = run_once(*sides[side], workload, seed,
                                       seconds)
                if not healthy(result):
                    all_healthy = False
                    print("perf_pairs: %s %s seed %d is not correct: %s\n%s" %
                          (workload, side, seed, result,
                           "\n".join(log.splitlines()[-20:])),
                          file=sys.stderr)
                runs[side].append(result)
                print("%s pair %d seed %d %s: %s" % (
                    workload, i + 1, seed, side,
                    json.dumps(result["metrics"] if result else None)),
                    file=sys.stderr)
        print("\n%s" % workload)
        print("%-15s %-32s %-32s %5s %6s  %s" % (
            "metric", "parent median [q1, q3]", "change median [q1, q3]",
            "wins", "ratio", "verdict"))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                     for p, c in zip(runs["parent"], runs["change"])
                     if p and c and name in p["metrics"] and
                     name in c["metrics"]]
            if not pairs:
                print("%-15s no paired values" % name)
                continue
            parent = [p for p, _ in pairs]
            change = [c for _, c in pairs]
            wins, word = verdict(parent, change, metric["better"],
                                 metric["bound"])
            pq = quartiles(parent)
            cq = quartiles(change)
            ratio = cq[1] / pq[1] if pq[1] else float("nan")
            print("%-15s %-32s %-32s %2d/%-2d %6.3f  %s (bound %g)" % (
                name, "%.4g [%.4g, %.4g] %s" % (pq[1], pq[0], pq[2],
                                                metric["unit"]),
                "%.4g [%.4g, %.4g] %s" % (cq[1], cq[0], cq[2],
                                          metric["unit"]),
                wins, len(pairs), ratio, word, metric["bound"]))
    return 0 if all_healthy else 1


if __name__ == "__main__":
    sys.exit(main())
