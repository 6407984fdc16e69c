#!/usr/bin/env python3
"""Entry point of the screening benchmark (the "command" of BENCHMARK.json).

Run one workload from the root of a checkout:

    python3 bench/screening/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

The first run configures and builds bench/screening (the top-level project's
library and the driver) into a directory under $CARGO_TARGET_DIR, default
.bench_build, named after this checkout's path, so checkouts sharing that
directory never build each other's sources; build output goes to stderr.
The git SHA stamped into the result is read at run time (with "-dirty" for
uncommitted changes; "unknown" outside a git checkout).
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: every end_to_end metric of BENCHMARK.json
with --trace 0, every per_layer metric with --trace 1. --out keeps the
driver's full result JSON (host, build, inputs digest, every metric).

Compare two sets of full results (--out files) of the same workloads:

    python3 bench/screening/run.py --compare BASE.json... -- CHANGE.json...

It prints one row per (workload, end-to-end metric) marked better, worse,
unchanged or unresolved, applying the bounds of BENCHMARK.json: worse when
the change's median is worse than the base median by more than the bound;
unresolved when the base runs spread (interquartile range over median) by
more than the bound, unless every change run beats every base run; better
when the change wins at least 9 of 10 paired runs and the medians differ by
more than the base interquartile range. End-to-end rows use the untraced
runs. Rows in REPORT_ONLY are printed without a verdict. When both sides
hold traced runs of a workload in LAYER_CHECKS, its per-layer rows are
judged by the same rules with the bound given there.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# (workload, metric) pairs that --compare prints without a verdict.
REPORT_ONLY = {
    # Open loop below the knee: the poses answered per second are the
    # offered load, fixed by the frozen rates.
    ("wire_open_loop", "poses_per_s"): "offered load",
}
# Per-layer metrics --compare judges, with their bounds. The churn
# workload's misses (pocket grid and crop rebuilds) run in the featurize
# stage, which the depth-2 pipeline hides behind the model forward, so a
# miss-path regression shows here long before it reaches poses_per_s. The
# bound is the time metrics' one: traced runs of this metric spread by 15%
# interquartile on the reference host.
LAYER_CHECKS = {
    "rescore_target_churn": {"scorer.featurize_ms_per_batch": 0.25},
}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    d = d if d.is_absolute() else ROOT / d
    return d / f"screening-{hashlib.sha1(str(HERE).encode()).hexdigest()[:12]}"


def git_sha():
    """HEAD of the checkout run.py sits in, "unknown" if it is not a git one."""
    def git(*args):
        p = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
        return p.stdout.strip() if p.returncode == 0 else None
    if shutil.which("git") is None:
        return "unknown"
    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != ROOT.resolve():
        return "unknown"
    sha = git("rev-parse", "HEAD")
    if sha is None:
        return "unknown"
    return sha + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def build(bdir):
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append([cmake, "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append([cmake, "--build", str(bdir), "--target", "bench_screening",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if rc != 0:
            fail(f"build failed: {' '.join(cmd)}")


def run(args):
    if args.trace not in (0, 1):
        fail("--trace takes 0 or 1")
    contract = spec()
    bdir = build_dir()
    build(bdir)
    runs = bdir / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.seed}-t{args.trace}"
    result_path = runs / f"{stem}.json"
    result_path.unlink(missing_ok=True)
    cmd = [str(bdir / "bench_screening"), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--json={result_path}", f"--workdir={bdir / 'work'}",
           f"--git-sha={git_sha()}"]
    if args.trace:
        cmd.append(f"--trace={runs / (stem + '.trace.json')}")
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    if rc not in (0, 3) or not result_path.exists():
        fail(f"bench_screening exited with {rc}")
    result = json.loads(result_path.read_text())
    if args.out:
        shutil.copyfile(result_path, args.out)

    section = "layers" if args.trace else "metrics"
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result[section].get(m["name"])
        if got is None or got["value"] is None:
            fail(f"{args.workload} did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} is in {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = bool(result["correct"]) and rc == 0
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    sys.exit(0 if correct else 1)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, base, change):
    """One row of the comparison rules; see the module docstring."""
    lower = metric["better"] == "lower"
    bound = metric.get("bound", 0.0)
    b1, bmed, b3 = quartiles(base)
    _, cmed, _ = quartiles(change)

    def beats(c, b):
        return c < b if lower else c > b

    worse_by = (cmed - bmed) / bmed if lower else (bmed - cmed) / bmed
    if worse_by > bound:
        return "worse"
    all_better = all(beats(c, b) for c in change for b in base)
    if bmed != 0 and (b3 - b1) / abs(bmed) > bound and not all_better:
        return "unresolved"
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if beats(c, b))
    if pairs and wins >= 0.9 * len(pairs) and abs(cmed - bmed) > (b3 - b1):
        return "better"
    return "unchanged"


def compare_rows(w, metrics, section, runs):
    """Prints one row per metric; returns how many read worse."""
    worse = 0
    for m in metrics:
        vals = [[r[section].get(m["name"], {}).get("value") for r in side] for side in runs]
        if any(v is None for side in vals for v in side):
            print(f"{w:<22} {m['name']:<30} missing values")
            continue
        if (w, m["name"]) in REPORT_ONLY:
            v = f"report-only ({REPORT_ONLY[w, m['name']]})"
        else:
            v = verdict(m, vals[0], vals[1])
        worse += v == "worse"
        b1, bmed, b3 = quartiles(vals[0])
        c1, cmed, c3 = quartiles(vals[1])
        delta = (cmed - bmed) / bmed * 100 if bmed else 0.0
        print(f"{w:<22} {m['name']:<30} {f'{bmed:.4g} [{b1:.4g}, {b3:.4g}]':>30} "
              f"{f'{cmed:.4g} [{c1:.4g}, {c3:.4g}]':>30} {delta:>+7.1f}%  {v}")
    return worse


def compare(paths):
    if "--" not in paths:
        fail("--compare takes BASE.json... -- CHANGE.json...")
    cut = paths.index("--")
    sides = (paths[:cut], paths[cut + 1:])
    if not sides[0] or not sides[1]:
        fail("--compare needs runs on both sides of --")
    contract = spec()
    per_layer = {m["name"]: m for m in contract["per_layer"]}
    results = [[json.loads(Path(p).read_text()) for p in side] for side in sides]
    workloads = sorted({r["workload"] for side in results for r in side})
    print(f"{'workload':<22} {'metric':<30} {'base median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'delta':>8}  verdict")
    worse = 0
    for w in workloads:
        runs = [[r for r in side if r["workload"] == w] for side in results]
        digests = [{r["seed"]: r["inputs"]["digest"] for r in side} for side in runs]
        for seed in sorted(digests[0].keys() & digests[1].keys()):
            if digests[0][seed] != digests[1][seed]:
                print(f"{w:<22} seed {seed}: the two sides measured different inputs")
        plain = [[r for r in side if not r["traced"]] for side in runs]
        if plain[0] and plain[1]:
            worse += compare_rows(w, contract["end_to_end"], "metrics", plain)
        else:
            print(f"{w:<22} untraced runs missing on one side")
        traced = [[r for r in side if r["traced"]] for side in runs]
        if w in LAYER_CHECKS and traced[0] and traced[1]:
            checks = [dict(per_layer[name], bound=bound)
                      for name, bound in LAYER_CHECKS[w].items()]
            worse += compare_rows(w, checks, "layers", traced)
    sys.exit(1 if worse else 0)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "--compare":
        compare(sys.argv[2:])
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out")
    run(p.parse_args())


if __name__ == "__main__":
    main()
