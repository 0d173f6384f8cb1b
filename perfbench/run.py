#!/usr/bin/env python3
"""Benchmark entry point: builds perfbench, runs one workload, reduces.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

Builds the perfbench binary (and the gridmutex libraries it links) from the
checkout's sources into .bench_build/ (or $CARGO_TARGET_DIR), runs it, and
reduces its raw per-pass record to the metrics BENCHMARK.json declares.
Prints a host-conditions block, the traced per-layer split, and as the last
stdout line one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exits non-zero, without a result line, when the build fails; exits 1 with
"correct": false when an output check fails.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

# Host cost is reported as if the pass's reference (the event-loop
# ReferenceLoop around it, or lockd_loopback's load generator during it)
# had taken exactly this long: value = raw * REF_NOMINAL_NS / reference ns.
# Fixed once, so the unit stays µs (or s) and runs taken at different host
# speeds compare. kRefNominalNs in src/host.hpp is the same constant
# (lockd_loopback's obtaining times are normalised in the binary).
REF_NOMINAL_NS = 30_000_000.0

SIM_LAYERS = ("sim", "net", "mutex", "core", "service", "workload")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- reduction


def pass_reference_ns(p):
    """The reference a pass is divided by: one the workload measured during
    the pass (lockd_loopback's load generator), else the mean of the
    reference loop just before and just after it."""
    if p.get("ref_during_ns", 0) > 0:
        return p["ref_during_ns"]
    return 0.5 * (p["ref_before_ns"] + p["ref_after_ns"])


def norm_factor(p):
    """Reference normalisation of one pass."""
    ref = pass_reference_ns(p)
    if not ref > 0:
        raise ValueError("pass without a reference-loop time")
    return REF_NOMINAL_NS / ref


def median_of(passes, fn):
    values = [fn(p) for p in passes]
    if not values:
        raise ValueError("no passes to reduce")
    return statistics.median(values)


def cpu_us_per_cs(p):
    return p["cpu_ns"] / 1e3 / max(p["completed"], 1)


def split_range(traced):
    """Each layer's lowest and highest share of a traced pass: spans are
    wall-clock, so a host stall lands in whichever span is open."""
    shares = {n: [] for n in SIM_LAYERS}
    for p in traced:
        whole = sum(p["self_ns"][n] for n in SIM_LAYERS)
        for n in SIM_LAYERS:
            shares[n].append(100.0 * p["self_ns"][n] / whole if whole else 0)
    return ", ".join("%s %.0f-%.0f%%" % (n, min(v), max(v))
                     for n, v in shares.items() if max(v) > 0)


def reduce_raw(raw):
    """Raw perfbench record -> (end_to_end metrics, per_layer metrics,
    split text). Host costs are medians over passes of the reference-
    normalised per-pass value; simulated statistics come straight from the
    summary (identical on every pass, which the binary checks)."""
    passes = raw["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    summ = raw["summary"]
    host = raw["host"]
    attempted = sum(p["attempted"] for p in plain)
    completed = sum(p["completed"] for p in plain)

    cpu = median_of(plain, lambda p: cpu_us_per_cs(p) * norm_factor(p))
    e2e = {
        "setup_s": median_of(plain,
                             lambda p: p["setup_ns"] / 1e9 * norm_factor(p)),
        "cpu_us_per_cs": cpu,
        "peak_rss_mb": host["world_peak_kb"] / 1024.0,
        "completed_share": completed / max(attempted, 1),
        "obtain_ms": summ["obtain_ms"],
        "obtain_sd_ms": summ["obtain_sd_ms"],
        "obtain_p50_ms": summ["obtain_p50_ms"],
        "obtain_p99_ms": summ["obtain_p99_ms"],
        "inter_msgs_per_cs": summ["inter_msgs_per_cs"],
        "inter_bytes_per_cs": summ["inter_bytes_per_cs"],
    }

    layer = dict(summ["counts"])
    every = plain + traced
    for name, key in (("net.setup_s", "net_setup_ns"),
                      ("mutex.setup_s", "mutex_setup_ns"),
                      ("service.setup_s", "service_setup_ns")):
        layer[name] = median_of(every,
                                lambda p, k=key: p[k] / 1e9 * norm_factor(p))
    split = ""
    if traced:
        def self_per_cs(name):
            return median_of(traced, lambda p: p["self_ns"][name] *
                             norm_factor(p) / max(p["completed"], 1))
        events_per_cs = layer.get("sim.events_per_cs", 0.0)
        layer["sim.self_ns_per_event"] = (
            self_per_cs("sim") / events_per_cs if events_per_cs > 0 else 0.0)
        layer["net.send_ns_per_msg"] = median_of(
            traced, lambda p: p["self_ns"]["net"] * norm_factor(p) /
            max(p["net_sends"], 1))
        layer["mutex.handler_ns_per_cs"] = self_per_cs("mutex")
        layer["core.coordinator_ns_per_cs"] = self_per_cs("core")
        layer["service.session_ns_per_cs"] = self_per_cs("service")
        layer["workload.app_ns_per_cs"] = self_per_cs("workload")
        traced_cpu = median_of(
            traced, lambda p: cpu_us_per_cs(p) * norm_factor(p))
        layer["bench.trace_overhead"] = traced_cpu / cpu - 1.0
        totals = {n: sum(p["self_ns"][n] for p in traced) for n in SIM_LAYERS}
        whole = sum(totals.values())
        if whole > 0:
            split = ", ".join("%.0f%% %s" % (100.0 * totals[n] / whole, n)
                              for n in SIM_LAYERS if totals[n] > 0)
            split += "; per traced pass: " + split_range(traced)
    layer["bench.raw_cpu_us_per_cs"] = median_of(plain, cpu_us_per_cs)
    layer["bench.wall_cs_per_s"] = median_of(
        plain, lambda p: p["completed"] / max(p["wall_ns"], 1) * 1e9)
    layer["bench.ref_ms"] = median_of(every,
                                      lambda p: pass_reference_ns(p) / 1e6)
    layer["bench.steal_share"] = host["steal_share"]
    if not split:
        split = summ.get("note", "")
    elif summ.get("note"):
        split += " (" + summ["note"] + ")"
    for name in summ.get("unreached", []):
        layer[name] = 0.0
    return e2e, layer, split


def select_metrics(spec, trace, e2e, layer):
    """Metrics for this mode, in BENCHMARK.json order, with their units.
    Raises ValueError naming any declared metric that is missing or not a
    finite number (an end-to-end metric must also be positive)."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = layer if trace else e2e
    out = {}
    problems = []
    for m in declared:
        v = values.get(m["name"])
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            problems.append("%s missing" % m["name"])
            continue
        v = float(v)
        if not math.isfinite(v):
            problems.append("%s not finite" % m["name"])
            continue
        if not trace and v <= 0:
            problems.append("%s not positive" % m["name"])
            continue
        out[m["name"]] = {"value": v, "unit": m["unit"]}
    if problems:
        raise ValueError("; ".join(problems))
    return out


# ------------------------------------------------------------------ build


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT,
                                                               ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures and builds perfbench; returns the binary path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def source_id():
    """The commit when the checkout is a git repository; otherwise a
    digest of the sources the benchmark builds."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "include", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(files):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


# ------------------------------------------------------------------- main


def main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="scaled-down worlds; checks plumbing, not speed")
    args = ap.parse_args(argv)

    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("perfbench: unknown workload " + args.workload)
        return 2
    binary = build()
    if binary is None:
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(build_dir(), "spans-%s.tsv" % args.workload)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    raw_line = [ln for ln in r.stdout.splitlines()
                if ln.startswith("PERFBENCH_RAW ")]
    if not raw_line:
        log("perfbench: the binary printed no record (exit %d)" %
            r.returncode)
        return 1
    raw = json.loads(raw_line[-1][len("PERFBENCH_RAW "):])
    with open(os.path.join(build_dir(), "raw-%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(raw, fh)

    failures = list(raw["failures"])
    if r.returncode != 0 and not failures:
        failures.append("perfbench exited %d" % r.returncode)
    metrics = {}
    try:
        e2e, layer, split = reduce_raw(raw)
        metrics = select_metrics(spec, bool(args.trace), e2e, layer)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as err:
        failures.append("metrics: %s" % err)

    host = raw["host"]
    plain = [p for p in raw["passes"] if not p["traced"]]
    attempted = sum(p["attempted"] for p in plain)
    completed = sum(p["completed"] for p in plain)
    print("host: parallelism %.2f of %d cpus, steal %d/%d ticks (%.2f%%), "
          "load %.2f -> %.2f, %s build, gcc %s, source %s" % (
              host["parallelism"], host["cpus"], host["steal_ticks"],
              host["total_ticks"], 100.0 * host["steal_share"],
              host["load_start"], host["load_end"], host["build_type"],
              host["compiler"], source_id()))
    print("memory: the program's world %.1f MB at its peak%s, the whole "
          "benchmark process %.1f MB" % (
              host["world_peak_kb"] / 1024.0,
              "" if host["world_peak_reset"] else
              " (high-water mark not reset)",
              host["process_peak_kb"] / 1024.0))
    print("run: %s seed %d, %d passes (%d traced), %d obtaining samples%s" % (
        args.workload, args.seed, len(raw["passes"]),
        len(raw["passes"]) - len(plain), raw["summary"]["obtain_samples"],
        "" if args.trace else "; " + raw["summary"]["note"]))
    if not failures:
        print("cost: %.4g us/CS raw, %s reference %.4g ms, %.4g us/CS "
              "normalised" % (
                  layer["bench.raw_cpu_us_per_cs"],
                  "load-generator" if any(p.get("ref_during_ns", 0) > 0
                                          for p in plain) else "event-loop",
                  layer["bench.ref_ms"], e2e["cpu_us_per_cs"]))
    if args.trace and not failures:
        print("split: " + split)
        print("unreported here: " + (", ".join(
            raw["summary"].get("unreached", [])) or "none"))
    for f in failures:
        print("CHECK FAILED: " + f)
    result = {
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": max(attempted, 1) - completed if attempted else 1,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
