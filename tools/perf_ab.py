#!/usr/bin/env python3
"""Paired A/B comparison of crayfish_perf between two commits.

Usage, from the repository root:

    python3 tools/perf_ab.py [--base REF] [--head REF | --head-tree DIR]
                             [--pairs N] [--workloads W1,W2] [--seed 42]
                             [--seconds S] [--workdir DIR]

Both commits are extracted (git archive) into their own trees under
--workdir and built there by bench/perf/run.py. Each workload then runs N
alternating pairs (base first on even pairs, head first on odd ones, so
drift in the machine's speed cancels) of

    python3 bench/perf/run.py --workload W --seed SEED --seconds S

For every end-to-end metric of BENCHMARK.json the report gives the median
and interquartile range of each side, the change of the head median, and
the number of pairs the head won. A metric whose base runs spread wider
than its BENCHMARK.json bound (interquartile range over median) is
reported as unresolved: the runs cannot tell a change of that size from
noise, so it neither passes nor fails. The exit status is 1 when a
resolved head median is worse than the base median by more than the
bound, or when any run fails or reports an incorrect result; 0 otherwise.
The script reads bench/perf and BENCHMARK.json and changes neither.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def default_base():
    for ref in ("origin/main", "main"):
        try:
            return git("merge-base", ref, "HEAD")
        except subprocess.CalledProcessError:
            continue
    sys.exit("perf_ab.py: no main branch to take the merge-base with; "
             "pass --base")


def extract(sha, dest):
    """Writes the tree of `sha` to `dest` (reused when already there)."""
    stamp = os.path.join(dest, ".perf_ab_sha")
    if os.path.isfile(stamp) and open(stamp).read().strip() == sha:
        return
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        sys.exit("perf_ab.py: git archive %s failed" % sha)
    with open(stamp, "w") as f:
        f.write(sha + "\n")


def run_once(tree, workload, seed, seconds):
    """One run.py invocation; returns the metrics dict, or None on failure."""
    cmd = [sys.executable, "bench/perf/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 0) != 0:
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="base ref (default: merge-base with "
                        "main)")
    parser.add_argument("--head", default="HEAD", help="head ref")
    parser.add_argument("--head-tree",
                        help="use this checkout as the head side instead of "
                        "extracting --head (e.g. . for the working tree)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads",
                        help="comma-separated (default: all in "
                        "BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--workdir",
                        default=os.path.join(ROOT, ".bench_build", "ab"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench.get("run_seconds", 25)
    metrics = bench["end_to_end"]

    shas = {"base": git("rev-parse", args.base or default_base())}
    trees = {}
    if args.head_tree:
        trees["head"] = os.path.abspath(args.head_tree)
        print("head %s" % trees["head"], flush=True)
    else:
        shas["head"] = git("rev-parse", args.head)
    for side, sha in shas.items():
        trees[side] = os.path.join(args.workdir, side)
        extract(sha, trees[side])
        print("%s %s -> %s" % (side, sha[:12], trees[side]), flush=True)

    failed = False
    for workload in workloads:
        runs = {"base": [], "head": []}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                m = run_once(trees[side], workload, args.seed, seconds)
                if m is None:
                    print("%s: %s run %d failed" % (workload, side, i))
                    failed = True
                runs[side].append(m)
        pairs = [(b, h) for b, h in zip(runs["base"], runs["head"])
                 if b is not None and h is not None]
        print("\n%s (%d pairs)" % (workload, len(pairs)))
        print("  %-16s %12s %12s %8s %22s %22s %5s" %
              ("metric", "base", "head", "change", "base IQR", "head IQR",
               "wins"))
        if not pairs:
            failed = True
            continue
        for metric in metrics:
            name = metric["name"]
            lower = metric["better"] == "lower"
            base = [b[name] for b, _ in pairs]
            head = [h[name] for _, h in pairs]
            mb, mh = statistics.median(base), statistics.median(head)
            change = (mh - mb) / mb if mb else 0.0
            wins = sum(1 for b, h in pairs
                       if (h[name] < b[name] if lower else h[name] > b[name]))
            bq, hq = quartiles(base), quartiles(head)
            spread = (bq[1] - bq[0]) / mb if mb else 0.0
            unresolved = spread > metric["bound"]
            worse = not unresolved and (change > metric["bound"] if lower
                                        else -change > metric["bound"])
            if unresolved:
                verdict = "  unresolved: base IQR %.0f%% > bound %g" % (
                    100.0 * spread, metric["bound"])
            elif worse:
                verdict = "  WORSE than bound %g" % metric["bound"]
            else:
                verdict = ""
            print("  %-16s %12.6g %12.6g %+7.1f%% %10.4g..%-10.4g "
                  "%10.4g..%-10.4g %2d/%-2d%s" %
                  (name, mb, mh, 100.0 * change, bq[0], bq[1], hq[0], hq[1],
                   wins, len(pairs), verdict))
            failed = failed or worse
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
