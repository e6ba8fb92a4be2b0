#!/usr/bin/env python3
"""MetaLeak benchmark: builds the library and its workload program, runs
one workload, prints every metric by name, and checks the outputs.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload audit_cold --seed 1 --seconds 28 --trace 0

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Lines above it print the same metrics, the workload's own named metrics
(audit_s, batch_ms_p50, sweep_s, ...) with units and sample counts,
and the run record. `--out FILE` appends the run to a result set.

Compare two result sets (see perfbench/README.md):

    python3 perfbench/run.py --compare parent.jsonl change.jsonl

The exit code is 0 when every output check passed, 1 when one failed and
2 when the benchmark could not build or run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170

# Each workload's own end-to-end metrics:
# (name, unit, better, bound, reduce(run) -> (value, n) or None).
# BENCHMARK.json carries the metrics every workload shares; these are
# printed beside them and judged by --compare. Their bound is the one
# BENCHMARK.json gives op_ms_p50: they time the same ops on the same
# noisy host.
TIME_BOUND = 0.25


def _median_of(series, scale=1.0):
    def reduce(run):
        values = run["series"].get(series, [])
        return (stats.median(values) * scale, len(values)) if values else None
    return reduce


def _tail_of(series, want):
    def reduce(run):
        values = run["series"].get(series, [])
        tail = stats.tail_percentile(values, want)
        if tail is None or tail[0] != want:
            return None
        return tail[1], len(values)
    return reduce


NAMED = {
    "audit_cold": [
        ("audit_s", "s", "lower", TIME_BOUND, _median_of("op_ms", 1e-3)),
    ],
    "attack_rounds": [
        ("rounds_per_s", "rounds/s", "higher", TIME_BOUND,
         _median_of("rounds_per_s")),
    ],
    "service_churn": [
        ("batch_ms_p50", "ms", "lower", TIME_BOUND, _median_of("batch_ms")),
        ("batch_ms_p90", "ms", "lower", TIME_BOUND, _tail_of("batch_ms", 90.0)),
        ("warm_audit_ms_p50", "ms", "lower", TIME_BOUND,
         _median_of("warm_audit_ms")),
        ("measure_ms_p50", "ms", "lower", TIME_BOUND, _median_of("measure_ms")),
    ],
    "federation_sweep": [
        ("sweep_s", "s", "lower", TIME_BOUND, _median_of("op_ms", 1e-3)),
    ],
}
ERROR_RATE = ("error_rate", "fraction", "lower", 0.0)


def load_spec(root):
    with open(root / "BENCHMARK.json") as f:
        return json.load(f)


def host_threads():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def source_digest(root):
    """SHA-256 over the library and benchmark sources, so runs from a
    checkout that is not a git repository still name what they measured."""
    h = hashlib.sha256()
    for top in ("src", BENCH_DIR.name):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def build(root):
    """Configures and builds the workload program; returns its path or None."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no MetaLeak sources at %s/src" % root,
              file=sys.stderr)
        return None
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j%d" % host_threads()])
    # Compiler scratch files stay inside the build directory.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        try:
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=880, env=env)
        except (OSError, subprocess.TimeoutExpired) as e:
            print("perfbench: %s: %s" % (" ".join(cmd), e), file=sys.stderr)
            return None
        if out.returncode != 0:
            sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
            print("perfbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return None
    exe = build_dir / "perfbench_workloads"
    return exe if exe.is_file() else None


def reduce_run(run, spec, trace):
    """Turns the workload program's raw samples into the BENCHMARK.json metrics."""
    series = run["series"]
    metrics = {}
    if not trace:
        values = {
            "op_ms_p50": stats.median(series["op_ms"]),
            "setup_s": stats.median(run["setup_s"]),
            "max_rss_mb": run["record"]["max_rss_mb"],
        }
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        return metrics
    op = stats.median(series["op_ms"])
    traced = stats.median(series["traced_op_ms"])
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace_overhead_frac":
            value = (traced - op) / op
        elif series.get(name):
            value = stats.median(series[name])
        else:
            value = 0.0  # the workload never calls this layer
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def named_metrics(run, workload):
    out = {}
    for name, unit, better, bound, reduce in NAMED.get(workload, []):
        got = reduce(run)
        if got is not None:
            out[name] = {"value": got[0], "unit": unit, "n": got[1],
                         "better": better, "bound": bound}
    attempted = max(1, run["attempted"])
    name, unit, better, bound = ERROR_RATE
    out[name] = {"value": run["failed"] / attempted, "unit": unit,
                 "n": run["attempted"], "better": better, "bound": bound}
    return out


def print_report(args, run, metrics, named, spec):
    rec = run["record"]
    print("perfbench %s seed=%d seconds=%g trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("record: " + " ".join("%s=%s" % (k, json.dumps(v))
                                for k, v in sorted(rec.items())))
    if run["counters"]:
        print("counters: " + " ".join("%s=%g" % kv
                                      for kv in sorted(run["counters"].items())))
    rows = []
    n_ops = len(run["series"].get("op_ms", []))
    if not args.trace:
        for m in spec["end_to_end"]:
            n = {"op_ms_p50": n_ops, "setup_s": len(run["setup_s"]),
                 "max_rss_mb": 1}[m["name"]]
            rows.append((m["name"], metrics[m["name"]]["value"], m["unit"], n))
        for name, m in named.items():
            rows.append((name, m["value"], m["unit"], m["n"]))
        for series, unit in (("op_ms", "ms"), ("batch_ms", "ms")):
            tail = stats.tail_percentile(run["series"].get(series, []), 99.9)
            if tail is not None and tail[0] > 50.0:
                rows.append(("%s_p%g" % (series, tail[0]), tail[1], unit,
                             len(run["series"][series])))
        for name, *_ in NAMED.get(args.workload, []):
            if name not in named:
                print("%-36s n/a: fewer than %d samples beyond it" %
                      (name, stats.MIN_BEYOND))
    else:
        for m in spec["per_layer"]:
            series = ("traced_op_ms" if m["name"] == "trace_overhead_frac"
                      else m["name"])
            n = len(run["series"].get(series, []))
            rows.append((m["name"], metrics[m["name"]]["value"], m["unit"], n))
    for name, value, unit, n in rows:
        print("%-36s %16.6f %-10s n=%d" % (name, value, unit, n))
    for failure in run["failures"]:
        print("CHECK FAILED %s: %s" % (failure["check"], failure["detail"]))


def run_workload(args):
    start = time.monotonic()
    try:
        spec = load_spec(ROOT)
    except (OSError, ValueError) as e:
        print("perfbench: cannot read BENCHMARK.json: %s" % e, file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print("perfbench: unknown workload %r" % args.workload,
              file=sys.stderr)
        return 2
    exe = build(ROOT)
    if exe is None:
        return 2
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=max(30.0, RUN_TIMEOUT_S -
                                         (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        print("perfbench: workload program timed out", file=sys.stderr)
        return 2
    if out.returncode != 0:
        print("perfbench: workload program exited with %d" % out.returncode,
              file=sys.stderr)
        return 2
    run = json.loads(out.stdout.strip().splitlines()[-1])
    run["record"]["commit"] = git_commit(ROOT)
    run["record"]["source_digest"] = source_digest(ROOT)
    metrics = reduce_run(run, spec, args.trace)
    named = named_metrics(run, args.workload)
    correct = not run["failures"]
    print_report(args, run, metrics, named, spec)
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "record": run["record"], "correct": correct,
                "metrics": metrics, "named": named,
            }) + "\n")
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


def load_result_set(path):
    runs = []
    files = sorted(Path(path).glob("*.jsonl")) if Path(path).is_dir() \
        else [Path(path)]
    for f in files:
        runs.extend(json.loads(line) for line in f.read_text().splitlines()
                    if line.strip())
    return [r for r in runs if not r["trace"]]


def compare(parent_path, change_path):
    spec = load_spec(ROOT)
    contract = {m["name"]: m for m in spec["end_to_end"]}
    parent = load_result_set(parent_path)
    change = load_result_set(change_path)
    print("%-18s %-20s %12s %25s %12s %25s %6s %s" %
          ("workload", "metric", "parent_p50", "parent_q1..q3", "change_p50",
           "change_q1..q3", "won", "verdict"))
    for workload in [w["name"] for w in spec["workloads"]]:
        # Pairs are runs with the same seed when both sides used the same
        # seeds; sorting keeps file order among runs of one seed.
        p_runs = sorted((r for r in parent if r["workload"] == workload),
                        key=lambda r: r["seed"])
        c_runs = sorted((r for r in change if r["workload"] == workload),
                        key=lambda r: r["seed"])
        if not p_runs or not c_runs:
            continue
        names = list(contract) + [n for n in p_runs[0]["named"]]
        for name in names:
            if name in contract:
                better, bound = contract[name]["better"], contract[name]["bound"]
                get = lambda r: r["metrics"].get(name, {}).get("value")
            else:
                better = p_runs[0]["named"][name]["better"]
                bound = p_runs[0]["named"][name]["bound"]
                get = lambda r: r["named"].get(name, {}).get("value")
            pv = [v for v in map(get, p_runs) if v is not None]
            cv = [v for v in map(get, c_runs) if v is not None]
            if not pv or not cv:
                continue
            v = stats.verdict(pv, cv, better, bound)
            print("%-18s %-20s %12.5g %12.5g..%-12.5g %12.5g %12.5g..%-12.5g "
                  "%5.0f%% %s" %
                  (workload, name, v["parent_median"], v["parent_q1"],
                   v["parent_q3"], v["change_median"], v["change_q1"],
                   v["change_q3"], 100 * v["won"], v["verdict"]))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run to this result set")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two result sets (files or dirs)")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
