#!/usr/bin/env python3
"""Wire-to-verdict benchmark runner.

Builds the benchmark (and the library it measures) from source under
.bench_build/ in the repository root, runs it, and passes its output
through; the last line of standard output is the JSON result.

  python3 perfbench/run.py --workload isp-v9 --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --all --seed 1 [--seconds 25] [--trace 1]
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --compare A.jsonl B.jsonl

Every result is also appended, with the host fingerprint, to
.bench_build/results.jsonl. --compare refuses to compare results whose
host fingerprints (nproc, CPU model, compiler, build type) differ.
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
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_build" / "results.jsonl"
TRACES = ROOT / ".bench_build" / "traces"
WORKLOADS = ["isp-v9", "haystack-ipfix", "spoof-flood", "isp-study"]
HOST_KEYS = ["nproc", "cpu", "compiler", "build_type"]
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configures once and builds `target`; build output goes to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", str(BUILD), "--target", target,
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    binary = BUILD / target
    return binary if binary.exists() else None


def revision():
    """The git commit when run from a clone, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:12]


def run_one(binary, workload, seed, seconds, trace, rev):
    """Runs one workload; returns (exit code, fingerprint, result)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--revision", rev]
    if trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(TRACES / f"{workload}-seed{seed}.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    fingerprint, last = None, None
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return 1, None, None
    for line in out.splitlines():
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
        if line.strip():
            last = line
    if proc.returncode != 0:
        # A failed check: pass the report through, but no result line.
        sys.stdout.write("".join(l + "\n" for l in out.splitlines()
                                 if not l.startswith("{")))
        return proc.returncode, fingerprint, None
    sys.stdout.write(out)
    sys.stdout.flush()
    result = json.loads(last)
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    with RESULTS.open("a") as f:
        f.write(json.dumps({"workload": workload, "seed": seed,
                            "seconds": seconds, "trace": trace,
                            "fingerprint": fingerprint,
                            "result": result}) + "\n")
    return 0, fingerprint, result


def compare(path_a, path_b):
    """Per workload and metric: median of A, median of B, change."""
    def load(path):
        rows = [json.loads(l) for l in Path(path).read_text().splitlines()
                if l.strip()]
        return rows

    a, b = load(path_a), load(path_b)
    hosts = {json.dumps({k: r["fingerprint"][k] for k in HOST_KEYS})
             for r in a + b}
    if len(hosts) != 1:
        log("refusing to compare results from different hosts or builds:")
        for h in sorted(hosts):
            log("  " + h)
        return 2
    print(f"{'workload':16} {'metric':36} {'A median':>14} "
          f"{'B median':>14} {'change':>8}")
    keys = sorted({(r["workload"], r["trace"]) for r in a} &
                  {(r["workload"], r["trace"]) for r in b})
    for workload, trace in keys:
        def values(rows, name):
            return [r["result"]["metrics"][name]["value"] for r in rows
                    if r["workload"] == workload and r["trace"] == trace
                    and name in r["result"]["metrics"]]
        names = next(r for r in a if r["workload"] == workload
                     and r["trace"] == trace)["result"]["metrics"]
        for name in names:
            va, vb = values(a, name), values(b, name)
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma * 100 if ma else float("nan")
            print(f"{workload:16} {name:36} {ma:14.6g} {mb:14.6g} "
                  f"{change:+7.1f}%")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true",
                   help="run every workload for the seed")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()

    if args.compare:
        return compare(*args.compare)
    if args.selftest:
        binary = build("perfbench_selftest")
        if binary is None:
            return 1
        return subprocess.run([str(binary)]).returncode
    if not args.all and not args.workload:
        p.error("give --workload, --all, --selftest or --compare")

    binary = build("perfbench")
    if binary is None:
        log("build failed")
        return 1
    rev = revision()
    workloads = WORKLOADS if args.all else [args.workload]
    status = 0
    for w in workloads:
        code, _, _ = run_one(binary, w, args.seed, args.seconds, args.trace,
                             rev)
        if code != 0:
            log(f"{w}: failed (exit {code})")
            status = code
    return status


if __name__ == "__main__":
    sys.exit(main())
