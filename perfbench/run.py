#!/usr/bin/env python3
"""The repo benchmark: builds the measurement binary, runs one workload, checks it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first run configures and builds the
measurement binary (perfbench/CMakeLists.txt, which compiles ../src) under
$CARGO_TARGET_DIR or .bench_build; later runs reuse the build.  With
--trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced replay (see README.md).  Any
correctness failure prints the result with "correct": false and exits 1;
a build or measurement failure exits nonzero without a result.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics  # noqa: E402

BINARY_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    t0 = time.monotonic()
    for cmd in (["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", jobs]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    log(f"perfbench: binary ready in {time.monotonic() - t0:.1f} s")
    return os.path.join(build_dir, "perfbench")


def print_table(title, rows):
    print(title)
    for name, value, unit in rows:
        print(f"  {name:38s} {value:>16.6g} {unit}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")

    binary = build(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=BINARY_TIMEOUT_S)
    if done.returncode != 0:
        log(done.stderr[-4000:])
        raise SystemExit(f"perfbench: measurement binary exited {done.returncode}")
    raw = json.loads(done.stdout)

    errors = metrics.gate_errors(raw)
    u = raw["untraced"]
    c = u["counts"]
    loss = c["net.injected"] - c["net.delivered"]
    print(f"workload {args.workload}  seed {args.seed}  steps {u['steps']}  "
          f"wall {u['wall_s']:.3f} s  packets {c['net.delivered']:.0f}")
    gate = [("mean_delivered_pps", c["net.delivered"] / u["wall_s"], "1/s"),
            ("mean_throughput_per_s", c["work.items"] / u["wall_s"], "1/s"),
            ("step_ms_p50", metrics.percentile(u["step_ms"], 50.0), "ms"),
            ("step_ms_p95", metrics.percentile(u["step_ms"], 95.0), "ms"),
            ("loss_ratio", metrics.ratio(loss, c["net.injected"]), "ratio"),
            ("failed_operations", u["failed"], "count"),
            ("correctness_errors", len(errors), "count")]
    if u["rollout_ms"]:
        rollouts = u["rollout_ms"]
        gate += [("rollout_s_p50", metrics.percentile(rollouts, 50.0) / 1e3, "s"),
                 ("device_failure_ratio", metrics.ratio(u["failed"], u["attempted"]),
                  "ratio")]
    tail = metrics.tail_percentile(u["step_ms"])
    if tail:
        gate.append((f"step_ms_tail_p{tail[0]:g}", tail[1], "ms"))
    print_table("checks", gate)
    for e in errors:
        print(f"  FAIL {e}")

    if args.trace:
        values, rows = metrics.per_layer(raw)
        spec_list = spec["per_layer"]
        traced_work = sum(rows.values()) / values["trace.coverage"] \
            if values["trace.coverage"] else 0.0
        print_table("layer rows (traced run, share of its work)",
                    [(k, metrics.ratio(v, traced_work), "share") for k, v in rows.items()]
                    + [("uncovered", 1.0 - values["trace.coverage"], "share")])
    else:
        values = metrics.end_to_end(raw)
        spec_list = spec["end_to_end"]
    print_table("metrics", [(s["name"], values[s["name"]], s["unit"]) for s in spec_list])

    attempted = int(u["attempted"]) + (int(raw["traced"]["attempted"]) if args.trace else 0)
    failed = int(u["failed"]) + (int(raw["traced"]["failed"]) if args.trace else 0)
    print(metrics.result_line(not errors, max(attempted, 1), failed,
                              {s["name"]: values[s["name"]] for s in spec_list},
                              spec_list))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
