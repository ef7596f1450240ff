#!/usr/bin/env python3
"""Repository benchmark: runs one workload for a fixed time and prints
its metrics as one JSON line.

    python3 perfbench/run.py --workload ts-aged|tp-fcfs|tp-queued-obs \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It builds perfbench/sample.exe with
dune, then starts it once per sample, serially, until --seconds
have passed.  Each sample is a fresh process, so its GC figures are its
own.  With --trace 0 it reports the end-to-end metrics as medians over
the samples.  With --trace 1 it alternates untraced and traced samples
and reports the per-layer metrics of the traced ones, plus the tracing
overhead (traced minus untraced wall time).

Every sample's simulated outputs are checked: against the pins in
perfbench/pins.json when the seed has them, and always against the first
sample of the run, since a seed's outputs and GC counts must repeat
exactly, traced or not.  The sample also checks invariants that hold for
any seed.  A sample that fails any check counts as failed.  Metric names
and units come from BENCHMARK.json.

    python3 perfbench/run.py --write-pins

re-pins the outputs of every pinned seed after a deliberate change to
the simulation.
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
PINS = os.path.join(HERE, "pins.json")
SAMPLE_EXE = os.path.join(ROOT, "_build", "default", "perfbench", "sample.exe")
WORKLOADS = ("ts-aged", "tp-fcfs", "tp-queued-obs")
MIN_SAMPLES = 3  # untraced samples per run, even past --seconds
SAMPLE_TIMEOUT_S = 150


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    try:
        p = subprocess.run(
            cmd + ["build", "--root", ROOT, "./perfbench/sample.exe"],
            cwd=ROOT, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if p.returncode != 0 or not os.path.exists(SAMPLE_EXE):
        sys.stderr.write(p.stdout + p.stderr)
        fail("build failed")


def sample(workload, seed, traced):
    cmd = [SAMPLE_EXE, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("sample took over %d s" % SAMPLE_TIMEOUT_S)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        fail("sample exited with %d" % p.returncode)
    return json.loads(p.stdout.strip().splitlines()[-1])


def mismatches(outputs, pins):
    """Keys whose value differs between a sample's outputs and pins."""
    return sorted(k for k in set(outputs) | set(pins) if outputs.get(k) != pins.get(k))


def perturbed(pins):
    """A copy of pins with one value deliberately wrong."""
    wrong = dict(pins)
    key = sorted(wrong)[0]
    value = wrong[key]
    wrong[key] = value + 1 if isinstance(value, int) else str(value) + "0"
    return wrong


def self_test(outputs, workload, seed, all_pins):
    """Problems with the checker itself: it must reject a wrong pinned
    value and another seed's pins."""
    problems = []
    if not mismatches(outputs, perturbed(outputs)):
        problems.append("checker accepted a deliberately wrong pinned value")
    for other, by_workload in sorted(all_pins["seeds"].items()):
        if other != str(seed) and workload in by_workload:
            if not mismatches(outputs, by_workload[workload]):
                problems.append("checker accepted seed %s's pins for seed %d" % (other, seed))
            break
    return problems


def check(samples, workload, seed, all_pins):
    """(failed sample count, problems found)."""
    pins = all_pins["seeds"].get(str(seed), {}).get(workload)
    first = samples[0]
    untraced_minor = {s["minor_mwords"] for s in samples if not s["traced"]}
    problems = self_test(first["outputs"], workload, seed, all_pins)
    if len(untraced_minor) > 1:
        problems.append("minor_mwords drifted between samples of one seed: %s"
                        % sorted(untraced_minor))
    failed = 0
    for i, s in enumerate(samples):
        bad = list(s["failures"])
        if pins is not None:
            bad += ["pinned output %s differs" % k for k in mismatches(s["outputs"], pins)]
        bad += ["output %s drifted from the first sample" % k
                for k in mismatches(s["outputs"], first["outputs"])]
        if bad:
            failed += 1
            kind = "traced" if s["traced"] else "untraced"
            problems += ["sample %d (%s): %s" % (i, kind, b) for b in bad]
    return failed, problems


def measure(workload, seed, seconds, traced):
    start = time.monotonic()
    samples = []
    longest = 0.0
    while True:
        untraced = sum(1 for s in samples if not s["traced"])
        # With tracing, alternate untraced and traced samples so the
        # overhead is measured over the same stretch of time.
        want_traced = traced and untraced > len(samples) - untraced
        t0 = time.monotonic()
        samples.append(sample(workload, seed, want_traced))
        longest = max(longest, time.monotonic() - t0)
        enough = len(samples) >= (2 if traced else MIN_SAMPLES)
        if enough and time.monotonic() + longest > start + seconds:
            return samples


def layer_metrics(samples):
    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    layers = {k: statistics.median(s["layers"][k] for s in traced) for k in traced[0]["layers"]}
    traced_wall = statistics.median(s["wall_s"] for s in traced)
    untraced_wall = statistics.median(s["wall_s"] for s in untraced)
    layers["trace.wall_s"] = traced_wall
    layers["trace.untraced_wall_s"] = untraced_wall
    layers["trace.overhead_s"] = traced_wall - untraced_wall
    return layers, traced[-1]["spans"]


def write_pins():
    build()
    all_pins = json.load(open(PINS))
    for seed in all_pins["seeds"]:
        for workload in WORKLOADS:
            s = sample(workload, int(seed), False)
            if s["failures"]:
                fail("seed %s %s: %s" % (seed, workload, s["failures"]))
            all_pins["seeds"][seed][workload] = s["outputs"]
    with open(PINS, "w") as f:
        json.dump(all_pins, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args()
    if args.write_pins:
        return write_pins()
    if args.workload is None or args.seed is None:
        ap.error("--workload and --seed are required")
    try:
        spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
        all_pins = json.load(open(PINS))
    except (OSError, ValueError) as e:
        fail(str(e))
    build()
    samples = measure(args.workload, args.seed, args.seconds, args.trace == 1)
    failed, problems = check(samples, args.workload, args.seed, all_pins)
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    if args.trace:
        values, spans = layer_metrics(samples)
        declared = spec["per_layer"]
        out = os.path.join(ROOT, ".perfbench")
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "spans-%s-%d.json" % (args.workload, args.seed)), "w") as f:
            json.dump(spans, f)
    else:
        untraced = [s for s in samples if not s["traced"]]
        values = {k: statistics.median(s[k] for s in untraced)
                  for k in ("wall_s", "setup_s", "peak_heap_mb", "minor_mwords")}
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail("metrics not produced: %s" % missing)
    result = {
        "correct": not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
