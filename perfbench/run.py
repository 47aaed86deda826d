#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the compiler.

One run (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Steadiness evidence: each workload repeatedly, one seed per run; prints
every end-to-end metric's median, quartiles and spread against its bound:

    python3 perfbench/run.py --steadiness [--runs 10] [--workload W ...]

Exactness: one workload twice with the same seed, traced; compares the
counts that must repeat exactly and lists those that may vary:

    python3 perfbench/run.py --exactness --workload W [--seed N]

The program is built from the checkout's sources with CMake into
$CARGO_TARGET_DIR (default .bench_build) under the checkout root; the run
writes only there. Only the Python standard library is used.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# Counts that must repeat exactly for a given seed (a difference is a bug
# in the compiler's determinism or in the benchmark).
EXACT = [
    "code_bytes", "lex.tokens", "parse.ast_nodes", "parse.ast_bytes",
    "parse.transforms_refused", "codegen.ir_insts", "midend.ir_insts_out",
    "midend.loops_unrolled", "midend.loads_forwarded",
    "midend.scalars_promoted", "midend.insts_dced", "interp.bytecode_bytes",
    "interp.insts_executed", "interp.superinst_hits", "jit.code_bytes",
    "jit.functions_compiled", "jit.fallbacks", "jit.spills",
    "runtime.forks", "runtime.chunks",
]
# Counts that legitimately vary between runs of one seed: they depend on
# thread timing (which thread parks, which request arrives first, which
# cache entry the LRU holds when a repeat arrives).
VARIABLE = [
    "jit.osr_promotions", "runtime.team_reuses", "runtime.transient_forks",
    "runtime.barrier_sleep_wakes", "service.l1_hit_ratio",
    "service.l2_hit_ratio", "service.l3_hit_ratio", "service.disk_hit_ratio",
    "service.inflight_waits", "service.evictions", "service.disk_stores",
    "net.rejects", "net.retries",
]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("compiler sources not found at %s" % os.path.join(ROOT, "src"))
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs the program once; returns (exit code, stdout lines)."""
    tmp = os.path.join(build_dir(), "tmp-%d" % os.getpid())
    os.makedirs(tmp, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--tmp", os.path.relpath(tmp, ROOT)]
    if trace:
        cmd += ["--spans", os.path.join(
            build_dir(), "spans-%s-%s.tsv" % (workload, seed))]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S, text=True)
        code, out = r.returncode, r.stdout
    except subprocess.TimeoutExpired as e:
        code = 124
        out = e.stdout if isinstance(e.stdout, str) else ""
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = out.splitlines()
    if echo:
        for line in lines:
            print(line)
        sys.stdout.flush()
    return code, lines


def parse_result(lines):
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        return None
    return res


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steadiness(args):
    bench = load_benchmark()
    binary = build()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    ok = True
    for w in workloads:
        values = {}
        walls = []
        for i in range(args.runs):
            seed = args.seed + i
            start = time.monotonic()
            code, lines = run_once(binary, w, seed, seconds, False, False)
            walls.append(time.monotonic() - start)
            res = parse_result(lines)
            if code != 0 or res is None or not res["correct"]:
                print("%s seed %d: run failed (exit %d)" % (w, seed, code))
                ok = False
                continue
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("workload %s: %d runs, seeds %d..%d, --seconds %d; wall "
              "time per run %s s"
              % (w, args.runs, args.seed, args.seed + args.runs - 1,
                 seconds, " ".join("%.1f" % x for x in walls)))
        print("  %-16s %12s %12s %12s %8s %6s  %s"
              % ("metric", "q1", "median", "q3", "spread", "bound",
                 "verdict"))
        for m in bench["end_to_end"]:
            v = values.get(m["name"], [])
            if len(v) < 2:
                print("  %-16s missing" % m["name"])
                ok = False
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m["bound"]
            if spread < bound / 3:
                verdict = "ok (< bound/3)"
            elif spread < bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                ok = False
            print("  %-16s %12.5g %12.5g %12.5g %7.2f%% %5.0f%%  %s"
                  % (m["name"], q1, med, q3, 100 * spread, 100 * bound,
                     verdict))
            print("  %-16s %s" % ("", " ".join("%.5g" % x for x in v)))
        sys.stdout.flush()
    return 0 if ok else 1


def exactness(args):
    binary = build()
    seconds = args.seconds or load_benchmark()["run_seconds"]
    results = []
    for w in args.workload:
        runs = []
        for _ in range(2):
            code, lines = run_once(binary, w, args.seed, seconds, True, False)
            res = parse_result(lines)
            if code != 0 or res is None:
                print("%s: traced run failed (exit %d)" % (w, code))
                return 1
            metrics = {k: m["value"] for k, m in res["metrics"].items()}
            for line in lines:
                if line.startswith("# untraced code_bytes "):
                    metrics["code_bytes"] = float(line.split()[-1])
            runs.append(metrics)
        print("workload %s, seed %d, two traced runs:" % (w, args.seed))
        for name in EXACT + VARIABLE:
            a, b = runs[0].get(name), runs[1].get(name)
            same = a == b
            kind = "exact" if name in EXACT else "may vary"
            if name in EXACT and not same:
                results.append((w, name))
            print("  %-28s %16s %16s  %s%s" % (
                name, a, b, kind,
                "" if same else (" DIFFERS" if name in EXACT else
                                 " (differs)")))
    if results:
        print("exact counts that differ: %s" % results)
        return 1
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--exactness", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()
    if args.steadiness:
        return steadiness(args)
    if not args.workload:
        fail("--workload is required")
    if args.exactness:
        return exactness(args)
    if len(args.workload) != 1 or args.seconds is None:
        fail("one --workload and --seconds are required")
    binary = build()
    code, lines = run_once(binary, args.workload[0], args.seed, args.seconds,
                           args.trace == 1)
    res = parse_result(lines)
    if res is None:
        fail("the benchmark printed no result (exit %d)" % code,
             code if code else 3)
    if code == 0 and not res["correct"]:
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
