#!/usr/bin/env python3
"""The repository benchmark: iCOIL control frames, measured end to end.

Builds perfbench/ (the icoil library from ../src plus the measuring program)
and measures one workload:

    python3 perfbench/run.py --workload icoil_families --seed 3 --seconds 40 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer split from a
separate traced run. The last line of output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is non-zero when an output check fails (digest mismatch,
traced/untraced divergence) or the program cannot be built.

    python3 perfbench/run.py --all [--trace 1]   every workload, one row each
    python3 perfbench/run.py --outcomes          full-length iCOIL episodes
    python3 perfbench/run.py --record-starts     rewrite the iCOIL window starts
    python3 perfbench/run.py --selftest          tests of the metric math

See perfbench/NOTES.md for what each workload and metric is for.
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
WORKLOADS = ("icoil_families", "il_serve_batched")
# Separate cold-start processes per run; with the measuring process itself
# they give the set-up and cold-frame samples whose medians are reported.
# The iCOIL cold frame builds the Reeds-Shepp table (about 1.6 s), the IL one
# is a single batched tick, so the IL workload affords more probes.
PROBES = {"icoil_families": 4, "il_serve_batched": 30}
# Hard wall-clock limit of one invocation, builds excepted.
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("cold_frame_ms", "ms"),
    ("frame_p50_ms", "ms"),
    ("frame_p99_ms", "ms"),
    ("frames_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("plan.cold_ms", "ms"), ("plan.warm_ms", "ms"),
    ("plan.expansions", "count"), ("plan.solved_ratio", "ratio"),
    ("trajopt.ms", "ms"), ("trajopt.p99_ms", "ms"),
    ("trajopt.admm_iters", "count"), ("trajopt.fail_share", "ratio"),
    ("infer.ms", "ms"), ("infer.forward_ms", "ms"), ("infer.gather_ms", "ms"),
    ("infer.scatter_ms", "ms"), ("infer.batch_mean", "count"),
    ("sense.ms", "ms"), ("detect.ms", "ms"), ("hsa.ms", "ms"),
    ("world.ms", "ms"), ("hsa.il_share", "ratio"),
    ("serve.stage_ms", "ms"), ("serve.tick_ms", "ms"),
    ("serve.commit_ms", "ms"), ("serve.commit_max_ms", "ms"),
    ("trace.overhead", "ratio"),
)


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build(target="perfbench"):
    """Configures once, then brings `target` up to date; output to stderr."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"no {needed} at {ROOT}: not a source checkout")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if target != "perfbench":
            cmd.append("-DPERFBENCH_TESTS=ON")
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    elif target != "perfbench":
        subprocess.run(["cmake", "-DPERFBENCH_TESTS=ON", out], check=True,
                       stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", target],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, target)


def child(binary, args, deadline):
    """Runs the measuring program; returns its JSON result."""
    try:
        proc = subprocess.run([binary] + args, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"perfbench {' '.join(args)} ran out of time")
    if proc.returncode != 0:
        raise BenchError(f"perfbench {' '.join(args)} failed: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"perfbench {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def starts_file(corpus):
    """The icoil_families window starts of a corpus (see NOTES.md)."""
    return os.path.join(HERE, "corpus", f"families-{corpus}.txt")


def base_args(workload, args):
    base = ["--workload", workload, "--seed", str(args.seed),
            "--corpus", str(args.corpus)]
    if workload == "icoil_families":
        base += ["--starts", starts_file(args.corpus)]
    return base


def measure(binary, args, deadline):
    """One workload run: its JSON result line, with metrics by name."""
    base = base_args(args.workload, args)
    if args.trace:
        r = child(binary, base + ["--seconds", str(args.seconds), "--trace", "1"],
                  deadline)
        metrics = {name: {"value": r[name], "unit": unit} for name, unit in PER_LAYER}
        return r, metrics

    setup, cold, first = [], [], set()
    for _ in range(PROBES[args.workload]):
        p = child(binary, base + ["--probe"], deadline)
        setup.append(p["setup_s"])
        cold.append(p["cold_frame_ms"])
        first.add(p["first_frame_digest"])
    r = child(binary, base + ["--seconds", str(args.seconds), "--trace", "0"],
              deadline)
    setup.append(r["setup_s"])
    cold.append(r["cold_frame_ms"])
    first.add(r["first_frame_digest"])
    if len(first) != 1 and r["correct"]:
        r["correct"] = False
        r["why"] = "first frames differ between processes"
    values = dict(r, setup_s=statistics.median(setup),
                  cold_frame_ms=statistics.median(cold))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return r, metrics


def run_one(binary, args):
    deadline = time.monotonic() + RUN_LIMIT_S
    r, metrics = measure(binary, args, deadline)
    correct = bool(r["correct"])
    if args.expect_digest and r["digest"] != args.expect_digest:
        correct = False
        r["why"] = f"digest {r['digest']} != expected {args.expect_digest}"
    if not correct:
        log(f"perfbench: {args.workload}: output check failed: {r.get('why')}")
    extra = "" if args.trace else (f" steady_frames={int(r['steady_frames'])}"
                                   f" tail_quantile={r['tail_quantile']:.4f}"
                                   f" units={int(r['units'])}")
    print(f"# {args.workload} seed={args.seed} corpus={args.corpus}"
          f" digest={r['digest']}{extra}")
    return {"correct": correct, "attempted": int(r["attempted"]),
            "failed": int(r["failed"]), "metrics": metrics}


def table(rows, names, by_metric):
    """One row per workload, or with `by_metric` one row per metric."""
    width = 22
    if by_metric:
        print("metric".ljust(30) + "".join(w.rjust(width) for w, _ in rows))
        for name, unit in names:
            print(f"{name} [{unit}]".ljust(30) + "".join(
                f"{r['metrics'][name]['value']:.6g}".rjust(width) for _, r in rows))
        return
    print("workload".ljust(width) + "".join(
        f"{name} [{unit}]".rjust(width) for name, unit in names))
    for workload, result in rows:
        print(workload.ljust(width) + "".join(
            f"{result['metrics'][name]['value']:.6g}".rjust(width) for name, _ in names))


def outcomes(binary, args):
    """Full-length icoil_families episodes against the timed windows."""
    r = child(binary, base_args("icoil_families", args) + ["--outcomes"],
              time.monotonic() + 7200.0)
    for key, value in r.items():
        print(f"{key} {value}")


def record_starts(binary, args):
    """Rewrites the window starts of --corpus from full-length episodes."""
    proc = subprocess.run([binary, "--workload", "icoil_families", "--corpus",
                           str(args.corpus), "--record-starts"],
                          capture_output=True, text=True, check=True)
    with open(starts_file(args.corpus), "w") as f:
        f.write(proc.stdout)
    log(f"wrote {starts_file(args.corpus)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1, help="workload seed")
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="measuring budget of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus", type=int, default=1000,
                    help="scenario-seed base of the fixed corpora")
    ap.add_argument("--expect-digest", help="fail unless the outcome digest is this")
    ap.add_argument("--all", action="store_true", help="every workload, one row each")
    ap.add_argument("--outcomes", action="store_true")
    ap.add_argument("--record-starts", action="store_true",
                    help="rewrite the icoil_families window starts of --corpus")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not (args.all or args.outcomes or args.record_starts or args.selftest
            or args.workload):
        ap.error("give --workload, --all, --outcomes, --record-starts or --selftest")
    try:
        if args.selftest:
            return subprocess.run([build("perfbench_metrics_test")]).returncode
        binary = build()
        if args.outcomes:
            outcomes(binary, args)
            return 0
        if args.record_starts:
            record_starts(binary, args)
            return 0
        if args.all:
            rows = []
            for workload in WORKLOADS:
                args.workload = workload
                rows.append((workload, run_one(binary, args)))
            table(rows, PER_LAYER if args.trace else END_TO_END, by_metric=bool(args.trace))
            return 0 if all(r["correct"] for _, r in rows) else 1
        result = run_one(binary, args)
    except (BenchError, subprocess.CalledProcessError, KeyError, ValueError) as e:
        log(f"perfbench: {e}")
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
