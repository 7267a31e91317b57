#!/usr/bin/env python3
"""perfledger: the repository benchmark (see BENCHMARK.json).

Builds golite and the ledger benchmark program from source, then runs one
workload and prints, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics:

    python3 perfledger/run.py --workload protocol_sweep --seed 1 \\
        --seconds 20 --trace 0

With --trace 0 the metrics are the end_to_end metrics BENCHMARK.json
declares; with --trace 1 they are its per_layer metrics. Other modes:

    python3 perfledger/run.py --workload all [--seconds S] [--trace T]
        run every workload and print one table of their metrics
    python3 perfledger/run.py --selftest
        build and run the self-test of the benchmark's arithmetic

Run it from the repository root. Build products, span files and
result files go under $CARGO_TARGET_DIR (default .bench_build).
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("protocol_sweep", "schedule_search", "soak")
# Fresh processes timed from spawn to the first timed operation.
SETUP_SAMPLES = 11
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 165


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfledger")


def build():
    """Configure (once) and build; returns the build directory."""
    bdir = build_dir()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("golite sources (src/) not found under " + ROOT)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=CONFIGURE_TIMEOUT_S)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", bdir, "-j", jobs, "--target", "ledger",
         "ledger_selftest"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return bdir


def selftest(bdir):
    proc = subprocess.run([os.path.join(bdir, "ledger_selftest")],
                          stdout=sys.stderr, timeout=60)
    return proc.returncode == 0


def load_json(*parts):
    with open(os.path.join(*parts)) as f:
        return json.load(f)


def check_protocol():
    """Every declared per-layer metric has a prediction entry."""
    predicted = {m for p in load_json(HERE, "protocol.json")["predictions"]
                 for m in p["metric"]}
    _, per_layer = declared_metrics()
    missing = [m for m in per_layer if m not in predicted]
    if missing:
        log("perfledger: no prediction for " + ", ".join(missing))
    return not missing


def declared_metrics():
    bench = load_json(ROOT, "BENCHMARK.json")
    return ([m["name"] for m in bench["end_to_end"]],
            [m["name"] for m in bench["per_layer"]])


def provenance(bdir, build_info, command):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = line.split("=", 1)[1].strip()
    except OSError:
        pass
    commit = None
    try:
        if os.path.exists(os.path.join(ROOT, ".git")):
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True,
                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    # Content digest of the measured sources, for checkouts without git.
    digest = hashlib.sha256()
    for top in ("src", "perfledger"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "host": platform.node(),
        "compiler": "%s (%s)" % (compiler, build_info.get("compiler")),
        "build_type": build_info.get("type"),
        "command": command,
    }


def ledger(bdir, argv, timeout):
    """Run the ledger binary; returns its stdout lines."""
    spawned = time.monotonic_ns()
    proc = subprocess.run(
        [os.path.join(bdir, "ledger")] + argv +
        ["--spawned-at-ns", str(spawned)],
        capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode != 0:
        raise RuntimeError("ledger %s exited with %d" %
                           (" ".join(argv), proc.returncode))
    return proc.stdout.splitlines()


def setup_samples(bdir, workload, seed):
    """Set-up times of fresh processes, each restated at nominal host
    speed by the reference the process times right after set-up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        lines = ledger(bdir, ["--workload", workload, "--seed", str(seed),
                              "--setup-only"], timeout=60)
        _, seconds, factor = lines[-1].split()
        samples.append(float(seconds) / float(factor))
    return samples


def run_workload(bdir, workload, seed, seconds, trace):
    """One measured run; returns the reduced result and all metrics."""
    end_to_end, per_layer = declared_metrics()
    setup = [] if trace else setup_samples(bdir, workload, seed)
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    lines = ledger(bdir, ["--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace",
                          "1" if trace else "0", "--out-dir", out_dir,
                          "--repo-root", ROOT],
                   timeout=RUN_TIMEOUT_S)
    raw = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    metrics = raw["metrics"]
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setup),
                              "unit": "s", "samples": len(setup)}
    wanted = per_layer if trace else end_to_end
    missing = [m for m in wanted if m not in metrics]
    if missing:
        raise RuntimeError("ledger did not report " + ", ".join(missing))
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m: {"value": metrics[m]["value"],
                        "unit": metrics[m]["unit"]} for m in wanted},
    }
    return result, metrics, raw.get("build", {})


def print_table(workload, metrics, names):
    print("%s:" % workload)
    for name in names:
        m = metrics[name]
        print("  %-30s %18.6f %-6s n=%d" % (name, m["value"], m["unit"],
                                           m.get("samples", 0)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=load_json(
        HERE, "protocol.json")["seeds"]["default"])
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload or --selftest is required")

    try:
        bdir = build()
        if not selftest(bdir) or not check_protocol():
            log("perfledger: self-test failed")
            return 1
        if args.selftest:
            return 0
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        command = " ".join(["python3", "perfledger/run.py"] + sys.argv[1:])
        combined = {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {}}
        everything = {}
        build_info = {}
        for workload in workloads:
            result, metrics, build_info = run_workload(
                bdir, workload, args.seed, args.seconds, bool(args.trace))
            names = list(result["metrics"])
            if not args.trace:
                names.append("error_rate")
            print_table(workload, metrics, names)
            everything[workload] = metrics
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            if len(workloads) == 1:
                combined["metrics"] = result["metrics"]
            else:
                for name, m in result["metrics"].items():
                    combined["metrics"][workload + "." + name] = m
        prov = provenance(bdir, build_info, command)
        record = dict(combined, provenance=prov, all_metrics=everything)
        results_dir = os.path.join(bdir, "results")
        os.makedirs(results_dir, exist_ok=True)
        path = os.path.join(results_dir, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace))
        with open(path, "w") as f:
            json.dump(record, f, indent=1)
        print("provenance: " + json.dumps(prov))
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfledger: %s" % e)
        return 1
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
