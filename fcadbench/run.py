#!/usr/bin/env python3
"""Benchmark of record for the F-CAD reproduction.

Builds the sample runner (the Rust package next to this file) from source,
then runs one workload for a fixed time, one sample process at a time,
verifies every operation's outputs, and prints one JSON object as the last
line of standard output:

    python3 fcadbench/run.py --workload design_table4 --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics (tracing off); ``--trace 1``
runs the traced variants and reports the per-layer metrics. Run it from the
root of a checkout. See README.md beside this file for what each metric
means and which end-to-end metric it should move.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
STATE_DIR = os.path.join(ROOT, ".fcadbench")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")

# Sample variants per workload: the end-to-end run uses only "plain"; the
# traced run cycles through all of them, one process each.
VARIANTS = {
    "design_table4": ["plain", "traced"],
    "serve_metropolis": ["plain", "traced", "workers2"],
    "serve_coupled": ["plain", "traced", "round_robin", "recorder"],
}

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("design_min_fps", "fps"),
    ("ok_frac", "ratio"),
]

# A layer the workload never calls reports 0.
PER_LAYER = [
    ("nnir.build_s", "s"),
    ("profiler.profile_s", "s"),
    ("core.construct_s", "s"),
    ("dse.explore_s", "s"),
    ("dse.evals", "count"),
    ("dse.evals_per_s", "1/s"),
    ("dse.inbranch_us", "us"),
    ("dse.convergence_iter", "count"),
    ("accel.evaluate_us", "us"),
    ("cyclesim.simulate_us", "us"),
    ("cyclesim.stages_per_s", "1/s"),
    ("serve.generate_s", "s"),
    ("serve.engine_s", "s"),
    ("serve.events", "count"),
    ("serve.events_per_s", "1/s"),
    ("serve.completed_frac", "ratio"),
    ("window.w2_s", "s"),
    ("window.speedup_w2", "x"),
    ("window.cpu_per_wall_w2", "ratio"),
    ("fleet.rr_swap_s", "s"),
    ("fleet.placement_share", "ratio"),
    ("obs.recorder_overhead", "ratio"),
    ("obs.recorder_peak_rss_mb", "MB"),
    ("proc.cpu_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.span_coverage", "ratio"),
]

# Operations per sample: five DSE cases, or the set-up design and one serve
# run. A sample that crashes fails all of them.
OPS_PER_SAMPLE = {"design_table4": 5, "serve_metropolis": 2, "serve_coupled": 2}
# design_table4's samples take turns over this many DSE seeds derived from
# --seed, and design_min_fps is their mean: one search's design varies too
# much from seed to seed to be compared across runs.
DSE_SEARCHES = {"design_table4": 4}
# End-to-end runs take at least this many samples, so a median exists.
MIN_PLAIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 150
CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def build():
    """Builds the sample runner and returns the path of its executable."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.join(ROOT, target)  # a relative CARGO_TARGET_DIR is the checkout's
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    command = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=dict(os.environ, CARGO_TARGET_DIR=target),
            stdout=sys.stderr,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        raise BenchError(f"cannot build the sample runner: {err}") from err
    if done.returncode != 0:
        raise BenchError(f"building the sample runner failed (exit {done.returncode})")
    return os.path.join(target, "release", "fcadbench")


def run_sample(binary, workload, variant, seed, size, search=0):
    """Runs one sample process. A sample that crashes, hangs or prints no
    result is returned without measurements, with every operation failed:
    that is the program's fault, not the benchmark's."""
    command = [binary, "--workload", workload, "--variant", variant, "--seed", str(seed),
               "--search", str(search), "--size", size]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
    except OSError as err:
        raise BenchError(f"cannot start the sample runner: {err}") from err
    except subprocess.TimeoutExpired:
        return crashed(workload, variant, search, f"did not finish in {SAMPLE_TIMEOUT_S} s")
    if done.returncode == 2:  # the runner's own usage error
        raise BenchError(f"the sample runner rejected {command[1:]}: {done.stderr.strip()}")
    try:
        sample = json.loads(done.stdout.strip().splitlines()[-1]) if done.returncode == 0 else None
    except (IndexError, ValueError):
        sample = None
    if sample is None:
        return crashed(workload, variant, search, f"exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    sample["variant"] = variant
    sample["search"] = search
    return sample


def crashed(workload, variant, search, why):
    op = {"name": f"{variant} sample", "digest": "", "ok": False, "why": why}
    return {"variant": variant, "search": search, "crashed": True, "ops": [op] * OPS_PER_SAMPLE[workload]}


def collect(binary, workload, seed, seconds, trace, size):
    """Runs rounds of sample processes for about `seconds`: a round starts
    only if half of it still fits, so runs end close to their budget."""
    schedule = VARIANTS[workload] if trace else ["plain"]
    searches = DSE_SEARCHES.get(workload, 1)
    min_rounds = 1 if trace else max(MIN_PLAIN_SAMPLES, searches)
    # Unmeasured warm-up: loads the executable and wakes the CPU.
    run_sample(binary, workload, "plain", seed, "tiny")
    samples = []
    started = time.monotonic()
    rounds, round_s = 0, 0.0
    while rounds < min_rounds or time.monotonic() - started + round_s / 2 < seconds:
        round_started = time.monotonic()
        for variant in schedule:
            samples.append(run_sample(binary, workload, variant, seed, size, rounds % searches))
        round_s = time.monotonic() - round_started
        rounds += 1
        if any(s.get("crashed") for s in samples):
            break  # a crash fails the run; a hang must not repeat
    return samples


def verify(samples, workload, seed, size, digests_path):
    """Counts operations and failures. An operation fails when its own
    checks fail, when its digest differs from the one pinned for this
    seed, or when it differs from the same operation in another sample
    (traced and untraced runs must agree)."""
    with open(digests_path, encoding="utf-8") as handle:
        pinned = json.load(handle).get(size, {}).get(str(seed), {}).get(workload)
    seen = {}
    attempted = failed = 0
    problems = []
    for sample in samples:
        for op in sample["ops"]:
            attempted += 1
            name, digest = op["name"], op["digest"]
            why = op["why"] if not op["ok"] else ""
            if not digest:
                why = why or "no output"
            elif pinned is not None and pinned.get(name) != digest:
                why = f"digest {digest} differs from the pinned {pinned.get(name)}"
            elif seen.setdefault(name, digest) != digest:
                why = f"digest {digest} differs from another sample's {seen[name]}"
            if why:
                failed += 1
                problems.append(f"{sample['variant']} {name}: {why}")
    return attempted, failed, problems


def median(values):
    return statistics.median(values) if values else 0.0


def trimmed_mean(values):
    """Mean of the samples without the slowest and fastest tenth (at least
    one each from five samples on). Unlike a median, it follows the share
    of a run the host spent in its fast and slow phases smoothly."""
    ordered = sorted(values)
    cut = max(1, len(ordered) // 10) if len(ordered) >= 5 else 0
    return statistics.mean(ordered[cut:len(ordered) - cut]) if ordered else 0.0


def of(samples, variant, key):
    return [s[key] for s in samples if s["variant"] == variant]


def end_to_end(samples, attempted, failed):
    plain = [s for s in samples if s["variant"] == "plain"]
    # Exact per search, so the mean over searches is exact per seed.
    fps = {}
    for s in plain:
        fps.setdefault(s["search"], []).append(s["design_min_fps"])
    return {
        "wall_s": [s["wall_s"] for s in plain],
        "setup_s": [statistics.median(s["setup_s"]) for s in plain],
        "peak_rss_mb": [s["peak_rss_kb"] / 1024 for s in plain],
        "design_min_fps": [statistics.mean(median(v) for v in fps.values())],
        "ok_frac": [ok_frac(attempted, failed)],
    }


def ok_frac(attempted, failed):
    return (attempted - failed) / attempted


def per_layer(samples):
    traced = [s for s in samples if s["variant"] == "traced"]
    values = {name: [s["layers"][name] for s in traced if name in s["layers"]] for name, _ in PER_LAYER}
    plain_wall = median(of(samples, "plain", "wall_s"))

    def walls(variant, transform=lambda wall: wall):
        return [transform(wall) for wall in of(samples, variant, "wall_s")]

    w2 = [s for s in samples if s["variant"] == "workers2"]
    values["window.w2_s"] = walls("workers2")
    values["window.speedup_w2"] = walls("workers2", lambda wall: plain_wall / wall)
    values["window.cpu_per_wall_w2"] = [s["body_cpu_ticks"] / CLK_TCK / s["wall_s"] for s in w2]
    values["fleet.rr_swap_s"] = walls("round_robin")
    values["fleet.placement_share"] = walls("round_robin", lambda wall: 1 - wall / plain_wall)
    values["obs.recorder_overhead"] = walls("recorder", lambda wall: wall / plain_wall - 1)
    values["obs.recorder_peak_rss_mb"] = [kb / 1024 for kb in of(samples, "recorder", "peak_rss_kb")]
    values["proc.cpu_s"] = [ticks / CLK_TCK for ticks in of(samples, "plain", "cpu_ticks")]
    values["bench.trace_overhead"] = [
        (s["wall_s"] - s["layers"]["bench.probe_s"]) / plain_wall - 1 for s in traced
    ]
    return values


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def stamp():
    def output(command):
        try:
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        return done.stdout.strip() if done.returncode == 0 else "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "commit": output(["git", "rev-parse", "HEAD"]),
        "rustc": output(["rustc", "--version"]),
    }


def run(workload, seed, seconds, trace, size="full", digests_path=DIGESTS):
    """One benchmark run. Returns the result object and the per-metric
    sample statistics."""
    binary = build()
    samples = collect(binary, workload, seed, seconds, trace, size)
    attempted, failed, problems = verify(samples, workload, seed, size, digests_path)
    for problem in problems:
        print(f"fcadbench: FAILED {workload} seed {seed}: {problem}", file=sys.stderr)
    names = PER_LAYER if trace else END_TO_END
    if any(s.get("crashed") for s in samples):
        values = {"ok_frac": [ok_frac(attempted, failed)]}  # the other figures are incomplete
    else:
        values = per_layer(samples) if trace else end_to_end(samples, attempted, failed)
    metrics, stats = {}, {}
    for name, unit in names:
        series = values.get(name) or [0.0]
        q1, q3 = quartiles(series)
        value = trimmed_mean(series) if name == "wall_s" else median(series)
        metrics[name] = {"value": value, "unit": unit}
        stats[name] = {"unit": unit, "n": len(series), "value": value, "median": median(series), "q1": q1, "q3": q3}
    write_spans(samples, workload, seed)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {"workload": workload, "seed": seed, "trace": trace, "samples": len(samples), "stamp": stamp(), "stats": stats}
    return result, detail


def write_spans(samples, workload, seed):
    """Writes the last traced sample's spans (kept in memory until now)."""
    traced = [s for s in samples if "spans" in s]
    if not traced:
        return
    os.makedirs(STATE_DIR, exist_ok=True)
    path = os.path.join(STATE_DIR, f"spans-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(traced[-1]["spans"], handle)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(VARIANTS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--size", default="full", choices=["full", "tiny"], help="tiny: the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a whole number >= 0")
    try:
        result, detail = run(args.workload, args.seed, args.seconds, args.trace, args.size)
    except BenchError as err:
        print(f"fcadbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
