#!/usr/bin/env python3
"""Build and run the repository benchmark, or compare two sets of its results.

Run one workload from the repository root (the first run builds the benchmark and
trains the models it needs once, with the quick recipe):

    python3 perfbench/run.py --workload resnet18_simd_b16 --seed 1 --seconds 30 --trace 0

The program's standard output is passed through; its last line is the result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}. Every run
also appends one record (result, run description, commit, source digest) to
perfbench/.out/results.jsonl, or to the file named by --results.

Compare two result files, e.g. runs of a parent commit and of a change:

    python3 perfbench/run.py --compare base.jsonl new.jsonl

For each workload and end-to-end metric of BENCHMARK.json this prints both medians
and quartiles, the ratio new/base, and a verdict: improved, no worse, worse, or
unresolved when either side's spread exceeds the metric's bound.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_RESULTS = HERE / ".out" / "results.jsonl"
# Sources whose content decides what the benchmark measures; hashed into every record,
# because a checkout without git history has no commit to report.
DIGEST_ROOTS = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench/src", "perfbench/Cargo.toml"]


def source_digest():
    digest = hashlib.sha256()
    for name in DIGEST_ROOTS:
        path = ROOT / name
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        for f in files:
            if "target" in f.relative_to(ROOT).parts:
                continue
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() or None


def build():
    """Builds the benchmark; returns the executable's path, or None if the build failed."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return target / "release" / "perfbench"


def run(args):
    exe = build()
    if exe is None:
        print("perfbench: the build failed", file=sys.stderr)
        return 1
    # Training on a cache miss runs in its own process, so its time and the memory it
    # leaves resident stay out of the measured run.
    prepare = subprocess.run([str(exe), "--prepare", args.workload], stdout=subprocess.PIPE, text=True)
    if prepare.returncode != 0:
        return prepare.returncode
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    env = {"commit": commit(), "source_digest": source_digest(),
           "train_s": json.loads(prepare.stdout)["train_s"]}
    info = {}
    for line in lines[:-1]:
        if line.startswith('{"info"'):
            info = json.loads(line)["info"]
    record = dict(info, **env, result=json.loads(lines[-1]))
    results = Path(args.results)
    results.parent.mkdir(parents=True, exist_ok=True)
    with results.open("a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps({"env": env}))
    sys.stdout.write(proc.stdout)
    return 0


def load(path):
    """Untraced runs of a results file: {workload: {metric: [values in run order]}}."""
    out = {}
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if record.get("trace"):
            continue
        metrics = out.setdefault(record["workload"], {})
        for name, metric in record["result"]["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return out


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return q1, statistics.median(values), q3


def verdict(base, new, better, bound):
    """Compares two samples of one metric (see the choosing-metrics rules)."""
    sign = 1 if better == "higher" else -1
    b1, bm, b3 = summary(base)
    n1, nm, n3 = summary(new)
    if all(sign * (n - b) > 0 for n in new for b in base):
        return "improved"
    if (b3 - b1) > bound * abs(bm) or (n3 - n1) > bound * abs(nm):
        return "unresolved"
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (nm - bm) > (b3 - b1):
        return "improved"
    if sign * (nm - bm) < -bound * abs(bm):
        return "worse"
    return "no worse"


def compare(base_path, new_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(base_path), load(new_path)
    print(f"{'workload':<20} {'metric':<14} {'base q1/med/q3':>30} {'new q1/med/q3':>30} "
          f"{'new/base':>9}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            b = base.get(workload, {}).get(metric["name"])
            n = new.get(workload, {}).get(metric["name"])
            if not b or not n:
                print(f"{workload:<20} {metric['name']:<14} (missing runs)")
                continue
            bs, ns = summary(b), summary(n)
            ratio = ns[1] / bs[1] if bs[1] else float("nan")
            fmt = lambda s: "/".join(f"{v:.4g}" for v in s)
            print(f"{workload:<20} {metric['name']:<14} {fmt(bs):>30} {fmt(ns):>30} "
                  f"{ratio:>9.4f}  {verdict(b, n, metric['better'], metric['bound'])} "
                  f"(n={len(b)}/{len(n)}, bound {metric['bound']})")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--results", default=str(DEFAULT_RESULTS))
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
