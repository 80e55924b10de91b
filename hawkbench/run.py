#!/usr/bin/env python3
"""The repository benchmark.

    python3 hawkbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 hawkbench/run.py --smoke [--seed N] [--second-seed M]

Run from the repository root. Builds the measuring program (hawkbench/,
linked against the repository's own library) into .bench_build/, runs one
workload for S seconds and prints every metric by name with its unit. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. The exit code is non-zero
when any correctness check fails.

--smoke runs every workload at a tiny size, traced and untraced, on two seeds,
and checks that every metric is printed with its unit and that results repeat
across processes. It is the benchmark's own test.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "hawkbench"
BINARY = BUILD_DIR / "hawkbench"
BUILD_TYPE = "RelWithDebInfo"  # The repository's default build type.
RUN_TIMEOUT_S = 170

class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_checked(cmd, timeout):
    """Runs cmd with output on stderr; raises BenchError on failure."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        raise BenchError("failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError("no repository sources next to hawkbench/ (expected src/ and "
                         "CMakeLists.txt in %s)" % ROOT)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], timeout=600)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    run_checked(["cmake", "--build", str(BUILD_DIR), "-j", jobs], timeout=900)
    if not BINARY.is_file():
        raise BenchError("build produced no %s" % BINARY)


def measure(workload, seed, seconds, trace, tiny=False):
    """Runs the measuring program once; returns its RESULT object."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0"]
    if tiny:
        cmd.append("--tiny")
    if trace:
        spans = ROOT / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans / ("%s-seed%d.jsonl" % (workload, seed)))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
        stdout, failure = proc.stdout, "exit %d" % proc.returncode
    except subprocess.TimeoutExpired as e:
        stdout, failure = e.stdout or "", "did not finish within %d s" % RUN_TIMEOUT_S
        if isinstance(stdout, bytes):
            stdout = stdout.decode(errors="replace")
    lines = stdout.splitlines()
    results = [line[len("RESULT "):] for line in lines if line.startswith("RESULT ")]
    if not results:
        # The program died mid-run, e.g. on a failed simulator check: every
        # job of a repetition counts as failed.
        jobs = [int(line.split()[1]) for line in lines if line.startswith("JOBS ")]
        attempted = max(1, jobs[0] if jobs else 0)
        return {"correct": False, "attempted": attempted, "failed": attempted, "metrics": {},
                "detail": {}, "provenance": None,
                "errors": ["%s printed no result (%s)" % (workload, failure)]}
    result = json.loads(results[-1])
    if proc.returncode != 0 and result.get("correct", False):
        raise BenchError("%s exited %d" % (workload, proc.returncode))
    return result


def check_metrics(result, expected):
    """Every metric named in BENCHMARK.json, with its unit, and nothing else."""
    got = result["metrics"]
    problems = []
    for m in expected:
        if m["name"] not in got:
            problems.append("missing metric " + m["name"])
        elif got[m["name"]]["unit"] != m["unit"]:
            problems.append("metric %s has unit %s, expected %s"
                            % (m["name"], got[m["name"]]["unit"], m["unit"]))
    extra = set(got) - {m["name"] for m in expected}
    problems += ["unexpected metric " + name for name in sorted(extra)]
    return problems


def commit():
    """HEAD of the checkout, or "unknown" when the checkout is not a git tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def recorded_digest(workload, seed):
    path = HERE / "digests.json"
    if not path.is_file():
        return None
    with open(path) as f:
        return json.load(f).get("digests", {}).get(workload, {}).get(str(seed))


def report(result, expected):
    prov = result["provenance"]
    if prov is not None:
        recorded = recorded_digest(prov["workload"], prov["seed"])
        if recorded is None:
            match = "unrecorded"
        else:
            match = "match" if recorded == prov["digest"] else "MISMATCH (recorded %s)" % recorded
        print("workload %s  seed %d  %s pass" % (prov["workload"], prov["seed"],
                                                 "traced" if prov["traced_reps"] else "untraced"))
        print("provenance: nproc=%d compiler=%s build_type=%s commit=%s digest=%s (%s) "
              "reps=%d untraced/%d traced"
              % (prov["nproc"], prov["compiler"], prov["build_type"], commit(),
                 prov["digest"], match, prov["untraced_reps"], prov["traced_reps"]))
    for m in expected:
        got = result["metrics"].get(m["name"])
        if got is None:
            continue
        line = "  %-38s %16.6g %-6s %s" % (m["name"], got["value"], got["unit"],
                                          result["detail"].get(m["name"], ""))
        print(line.rstrip())
    failed_fraction = result["failed"] / max(1, result["attempted"])
    print("  %-38s %16.6g %-6s %d of %d simulated jobs did not finish"
          % ("failed_fraction", failed_fraction, "ratio", result["failed"],
             result["attempted"]))
    for error in result["errors"]:
        print("  CHECK FAILED: " + error)


def bench(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError("unknown workload %r (known: %s)" % (args.workload, ", ".join(names)))
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    build()
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    report(result, expected)
    problems = check_metrics(result, expected)
    for p in problems:
        print("  BENCHMARK ERROR: " + p)
    correct = bool(result["correct"]) and not problems and result["attempted"] >= 1
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                                  for k, v in result["metrics"].items()}}))
    return 0 if correct else 1


def smoke(args):
    spec = load_spec()
    build()
    seeds = [args.seed, args.second_seed if args.second_seed is not None else args.seed + 1]
    problems = []
    for w in spec["workloads"]:
        digests = {}
        for seed in seeds:
            for trace in (False, True):
                expected = spec["per_layer"] if trace else spec["end_to_end"]
                result = measure(w["name"], seed, 0.2, trace, tiny=True)
                report(result, expected)
                label = "%s seed %d trace %d" % (w["name"], seed, trace)
                problems += ["%s: %s" % (label, p) for p in check_metrics(result, expected)]
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append("%s: correctness checks failed" % label)
                if result["provenance"] is not None:
                    digests.setdefault(seed, set()).add(result["provenance"]["digest"])
        for seed, ds in digests.items():
            if len(ds) != 1:
                problems.append("%s seed %d: digest differs across processes" % (w["name"], seed))
        if (len(seeds) == 2 and seeds[0] != seeds[1]
                and digests.get(seeds[0]) == digests.get(seeds[1])):
            problems.append("%s: seeds %d and %d gave identical results" % (w["name"], *seeds))
    for p in problems:
        print("SMOKE FAILED: " + p)
    print("smoke: %s (%d workloads x seeds %s x traced/untraced)"
          % ("ok" if not problems else "FAILED", len(spec["workloads"]), seeds))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--second-seed", type=int, default=None)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        if args.smoke:
            return smoke(args)
        if args.workload is None:
            parser.error("--workload is required (or --smoke)")
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        if args.seconds <= 0:
            parser.error("--seconds must be positive")
        return bench(args)
    except BenchError as e:
        log("hawkbench: " + str(e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
