#!/usr/bin/env python3
"""The repository benchmark: one named workload, one seed, its own process.

    python3 perfbench/run.py --workload gen2_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The script builds perfbench_workload
from the repository sources into .bench_build/perfbench (RelWithDebInfo,
the repository default), runs the workload in a child process with every
HYPATIA_* knob cleared except the pool size it sets itself, checks the
outputs and prints a report. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the script
runs the workload twice, untraced then traced, and the metrics are the
per-layer ones plus trace.overhead_pct. Full results, host fingerprint
and trace spans included, land in .bench_build/perfbench/results/.

The run length is fixed in epochs (a function of --seconds alone), so
every work count repeats exactly for a given seed. The exit code is 0
when the outputs are correct, 1 when a check or a stored digest fails,
and 2 when the benchmark cannot build or run.

--self-test runs every workload briefly at 1 lane and at the benchmark's
lane count and checks that the output digests agree.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = BUILD_DIR / "results"
BINARY = BUILD_DIR / "perfbench_workload"
EXPECTED = HERE / "expected_digests.json"

# Untimed warm-up epochs per workload, and the nominal epoch rate that
# turns --seconds into a fixed epoch count. A run never has fewer than
# MIN_EPOCHS timed epochs, so at least ten samples lie beyond the p95.
WORKLOADS = {
    "gen2_sweep": {"warmup": 5, "epochs_per_second": 20},
    "s1_flowsim": {"warmup": 10, "epochs_per_second": 25},
    "k1_packets": {"warmup": 10, "epochs_per_second": 12},
}
MIN_EPOCHS = 200
SETUPS = 5
LANES = max(1, min(2, os.cpu_count() or 1))
TIME_LIMIT_S = 170.0
BUILD_LIMIT_S = 850.0

# The end-to-end metrics the final JSON line carries. epoch_ms_p95 and
# deadline_miss_ratio are printed in the report but not gated: on a
# shared host the p95 of a 20 s run moves 20-30% with multi-second
# slowdowns of the machine, and the miss ratio is 0 on two workloads.
END_TO_END = [
    ("setup_s", "s"),
    ("rtf", "s/s"),
    ("epoch_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = [
    ("orbit.warm_ms", "ms"),
    ("orbit.sgp4_fills_per_epoch", "count"),
    ("orbit.sgp4_cache_hits_per_epoch", "count"),
    ("routing.refresh_ms", "ms"),
    ("routing.fanout_ms", "ms"),
    ("routing.gsl_rows_patched_per_epoch", "count"),
    ("routing.pops_per_epoch", "count"),
    ("routing.settled_per_epoch", "count"),
    ("routing.allocs_per_epoch", "count"),
    ("routing.fstate_install_ms", "ms"),
    ("flowsim.epoch_ms", "ms"),
    ("flowsim.snapshot_ms", "ms"),
    ("flowsim.forwarding_ms", "ms"),
    ("flowsim.paths_ms", "ms"),
    ("flowsim.solve_ms", "ms"),
    ("flowsim.solver_rounds_per_epoch", "count"),
    ("flowsim.advance_ms", "ms"),
    ("sim.events_executed", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.allocs_per_event", "count"),
    ("sim.event_queue_peak", "count"),
    ("sim.event_loop_ms", "ms"),
    ("net.tx_packets", "count"),
    ("tcp.retransmissions", "count"),
    ("trace.overhead_pct", "%"),
]


class BenchError(Exception):
    """The benchmark could not build or run (exit code 2)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_process(cmd, timeout_s, env=None, stdout=None):
    """Runs cmd in its own process group; on timeout or interruption the
    whole group is killed and waited for, so nothing outlives the run."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout,
                            stderr=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out after {timeout_s:.0f} s: {' '.join(map(str, cmd))}")
    finally:
        if proc.poll() is None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"repository sources not found under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        rc = run_process(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                         BUILD_LIMIT_S, stdout=sys.stderr)
        if rc != 0:
            raise BenchError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = run_process(["cmake", "--build", str(BUILD_DIR), "--target",
                      "perfbench_workload", "-j", jobs],
                     BUILD_LIMIT_S, stdout=sys.stderr)
    if rc != 0 or not BINARY.is_file():
        raise BenchError("build of perfbench_workload failed")


def child_env(lanes):
    env = {k: v for k, v in os.environ.items() if not k.startswith("HYPATIA_")}
    env["HYPATIA_THREADS"] = str(lanes)
    return env


def run_child(workload, seed, epochs, trace, lanes, deadline, setups=SETUPS):
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / f"{workload}-seed{seed}-e{epochs}-l{lanes}-trace{int(trace)}.json"
    if out.exists():
        out.unlink()
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--lanes", str(lanes), "--epochs", str(epochs),
           "--warmup", str(WORKLOADS[workload]["warmup"]),
           "--setups", str(setups), "--trace", "1" if trace else "0",
           "--out", str(out)]
    rc = run_process(cmd, deadline - time.monotonic(), env=child_env(lanes),
                     stdout=sys.stderr)
    if rc != 0 or not out.is_file():
        raise BenchError(f"{workload} exited with code {rc}")
    result = json.loads(out.read_text())
    result["config"].update(cpu=cpu_model(), nproc=os.cpu_count())
    out.write_text(json.dumps(result) + "\n")
    result["result_file"] = str(out.relative_to(ROOT))
    return result


def epochs_for(workload, seconds):
    return max(MIN_EPOCHS, round(seconds * WORKLOADS[workload]["epochs_per_second"]))


def tail_percentile(samples, p, min_beyond=10):
    """Nearest-rank percentile, or None when fewer than min_beyond
    samples lie beyond it."""
    ordered = sorted(samples)
    rank = -(-len(ordered) * p // 100)  # ceil(n * p / 100)
    if len(ordered) - rank < min_beyond:
        return None
    return ordered[int(rank) - 1]


def end_to_end(result):
    epoch_ms = result["epoch_ms"]
    deadline_ms = result["epoch_s"] * 1e3
    misses = sum(1 for ms in epoch_ms if ms > deadline_ms)
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "rtf": len(epoch_ms) * result["epoch_s"] / (sum(epoch_ms) / 1e3),
        "epoch_ms_p50": statistics.median(epoch_ms),
        "epoch_ms_p95": tail_percentile(epoch_ms, 95),
        "deadline_miss_ratio": misses / len(epoch_ms),
        "deadline_misses": misses,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def check(result):
    """Returns (correct, notes): the child's own output checks plus the
    stored digest for this (workload, seed, epochs), when there is one."""
    notes = list(result["problems"])
    correct = result["failed_epochs"] == 0 and not notes
    expected = json.loads(EXPECTED.read_text()).get(result["workload"], {})
    want = expected.get("digests", {}).get(str(int(result["seed"])))
    if want is None or expected.get("epochs") != result["epochs"]:
        notes.append(f"digest {result['digest']} (no stored digest for this seed and length)")
    elif want == result["digest"]:
        notes.append(f"digest {result['digest']} matches the stored digest")
    else:
        correct = False
        notes.append(f"DIGEST MISMATCH: got {result['digest']}, stored {want}")
    return correct, notes


def report(args, base, traced, layers, e2e, notes):
    cfg = base["config"]
    print(f"perfbench {args.workload} seed={args.seed} epochs={base['epochs']} "
          f"warmup={base['warmup']} setups={len(base['setup_s'])} trace={args.trace}")
    print(f"host: cpu={cfg['cpu']!r} nproc={cfg['nproc']} lanes={cfg['lanes']:.0f} "
          f"compiler={cfg['compiler']!r} build={cfg['build_type']}")
    print(f"config: route_algo={cfg['route_algo']} sgp4_kernel={cfg['sgp4_kernel']} "
          f"snapshot_mode={cfg['snapshot_mode']} dest_cluster_km={cfg['dest_cluster_km']:g} "
          f"faults={cfg['faults']}")
    for note in notes:
        print(f"check: {note}")
    n = len(base["epoch_ms"])
    print(f"  setup_s             {e2e['setup_s']:10.4f} s   (median of {len(base['setup_s'])} set-ups)")
    print(f"  rtf                 {e2e['rtf']:10.4f} s/s (simulated s per wall s, {n} epochs)")
    print(f"  epoch_ms_p50        {e2e['epoch_ms_p50']:10.4f} ms  (n={n})")
    if e2e["epoch_ms_p95"] is None:
        print(f"  epoch_ms_p95        not reported: fewer than 10 of {n} samples beyond it")
    else:
        print(f"  epoch_ms_p95        {e2e['epoch_ms_p95']:10.4f} ms  (n={n})")
    print(f"  deadline_miss_ratio {e2e['deadline_miss_ratio']:10.4f}     "
          f"({e2e['deadline_misses']} of {n} epochs over {base['epoch_s'] * 1e3:g} ms)")
    print(f"  peak_rss_mb         {e2e['peak_rss_mb']:10.2f} MB")
    print(f"  results: {base['result_file']}")
    if traced is None:
        return
    print("per-layer (work counts from the untraced 1-lane run, times from the traced run):")
    for name, entry in sorted(layers.items()):
        print(f"  {name:36s} {entry['value']:14.4f} {entry['unit']:6s} [{entry['kind']}]")
    print("profile scopes over the timed epochs (traced run):")
    for name, s in sorted(traced["profile"].items()):
        print(f"  {name:28s} calls={s['calls']:<8.0f} total={s['total_ms']:12.3f} ms "
              f"self={s['self_ms']:12.3f} ms [{s['time']}]")
    print("spans (traced run):")
    for name, s in sorted(traced["trace_spans"]["by_name"].items()):
        print(f"  {name:20s} count={s['count']:<6.0f} total={s['total_ms']:12.3f} ms "
              f"self={s['self_ms']:12.3f} ms")
    print(f"  trace: {traced['result_file']}")


def layer_values(counted, traced):
    values = dict(traced["layers"])
    values.update((name, entry) for name, entry in counted["layers"].items()
                  if entry["kind"] == "work count")
    return values


def measure(args):
    build()
    deadline = time.monotonic() + TIME_LIMIT_S
    epochs = epochs_for(args.workload, args.seconds)
    base = run_child(args.workload, args.seed, epochs, False, LANES, deadline)
    runs = [base]
    traced = layers = None
    if args.trace:
        # Times come from a traced run at LANES. Work counts come from an
        # untraced 1-lane run: at more lanes, which worker grows its
        # thread-local scratch varies, and with it a few allocations.
        traced = run_child(args.workload, args.seed, epochs, True, LANES, deadline)
        counted = run_child(args.workload, args.seed, epochs, False, 1, deadline, setups=1)
        runs += [traced, counted]
        layers = layer_values(counted, traced)
        layers["trace.overhead_pct"] = {
            "value": (end_to_end(base)["rtf"] / end_to_end(traced)["rtf"] - 1.0) * 100.0,
            "unit": "%", "kind": "traced rtf against untraced rtf"}
    correct = True
    notes = []
    for r in runs:
        ok, r_notes = check(r)
        correct = correct and ok
        notes += [f"{run_label(r)}: {n}" for n in r_notes]
    if len({r["digest"] for r in runs}) != 1:
        correct = False
        notes.append("DIGESTS DIFFER between the untraced, traced and 1-lane runs")
    e2e = end_to_end(base)
    report(args, base, traced, layers, e2e, notes)

    if layers is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    else:
        metrics = {name: {"value": layers.get(name, {}).get("value", 0.0), "unit": unit}
                   for name, unit in PER_LAYER}
    print(json.dumps({"correct": correct, "attempted": len(base["epoch_ms"]),
                      "failed": max(r["failed_epochs"] for r in runs),
                      "metrics": metrics}))
    return 0 if correct else 1


def run_label(result):
    return (f"{'traced' if result['trace'] else 'untraced'} "
            f"{result['config']['lanes']:.0f}-lane run")


def self_test():
    """The output digest at 1 lane must equal the digest at LANES."""
    build()
    deadline = time.monotonic() + TIME_LIMIT_S
    ok = True
    for workload in WORKLOADS:
        digests = {lanes: run_child(workload, 1, 20, False, lanes, deadline,
                                    setups=1)["digest"] for lanes in sorted({1, LANES})}
        same = len(set(digests.values())) == 1
        ok = ok and same
        print(f"self-test {workload}: " +
              ", ".join(f"{lanes} lane(s) {d}" for lanes, d in digests.items()) +
              (" -> equal" if same else " -> DIFFERENT"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        return measure(args)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
