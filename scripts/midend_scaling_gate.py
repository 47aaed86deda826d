#!/usr/bin/env python3
"""Mid-end nest-scaling gate.

Runs BM_MidendNestScaling from bench_pipeline (the -O1 mid-end alone on
E17's recovery program with 1, 2, 4, 8 and 16 pragma nests in one
function) and fails when the time on 16 nests exceeds MAX_RATIO (2.5)
times the time on 8 nests. Both are measured in the same run, so the gate
does not depend on the host's speed; linear scaling reads 2.0. Each size
is repeated and its fastest repetition is used, which is the reading
least disturbed by other load on the host.

    python3 scripts/midend_scaling_gate.py build/bench/bench_pipeline

Exit status: 0 pass, 1 gate failed, 2 the benchmark could not be run or
read. Only the standard library is used.
"""

import json
import re
import subprocess
import sys

NAME = re.compile(r"^BM_MidendNestScaling/(\d+)$")
REPETITIONS = 7
MAX_RATIO = 2.5


def run_bench(binary):
    cmd = [binary, "--benchmark_filter=^BM_MidendNestScaling/",
           "--benchmark_repetitions=%d" % REPETITIONS,
           "--benchmark_format=json"]
    try:
        out = subprocess.run(cmd, check=True, capture_output=True,
                             text=True).stdout
        return json.loads(out)
    except (OSError, subprocess.CalledProcessError, ValueError) as err:
        print("midend_scaling_gate: cannot run %s: %s" % (binary, err),
              file=sys.stderr)
        sys.exit(2)


def fastest_ms(results):
    """Nests -> (fastest real time in ms, counters of that run)."""
    scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
    best = {}
    for b in results.get("benchmarks", []):
        m = NAME.match(b.get("run_name", b.get("name", "")))
        if not m or b.get("run_type", "iteration") != "iteration":
            continue
        nests = int(m.group(1))
        ms = b["real_time"] * scale[b.get("time_unit", "ns")]
        if nests not in best or ms < best[nests][0]:
            best[nests] = (ms, b)
    return best


def main():
    if len(sys.argv) != 2:
        print("usage: midend_scaling_gate.py PATH/TO/bench_pipeline",
              file=sys.stderr)
        return 2
    best = fastest_ms(run_bench(sys.argv[1]))
    if 8 not in best or 16 not in best:
        print("midend_scaling_gate: BM_MidendNestScaling/8 and /16 missing",
              file=sys.stderr)
        return 2
    print("nests  mid-end ms  scalars_promoted  insts_dced")
    for nests in sorted(best):
        ms, b = best[nests]
        print("%5d  %10.3f  %16d  %10d" % (
            nests, ms, int(b.get("scalars_promoted", 0)),
            int(b.get("insts_dced", 0))))
    ratio = best[16][0] / best[8][0]
    verdict = "ok" if ratio <= MAX_RATIO else "FAIL"
    print("t(16)/t(8) = %.2f (bound %.2f): %s" % (ratio, MAX_RATIO, verdict))
    return 0 if verdict == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
