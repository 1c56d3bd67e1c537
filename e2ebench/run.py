#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

    python3 e2ebench/run.py --workload fp16_bert25 --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --negative-controls

Run from the repository root. The benchmark is compiled from source into
.bench_build/e2ebench on first use (a CMake package of its own over ../src).
The last stdout line is the result JSON printed by the benchmark binary;
build logs and the human-readable summary go to stderr.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "gcs_e2ebench")
RUN_TIMEOUT_S = 170

# (workload, injected fault, checks that must reject the run)
NEGATIVE_CONTROLS = [
    ("fp16_bert25", "out", ["fp16_bound"]),
    ("thc_bert25", "out", ["thc_bound"]),
    ("topk_mlp_tta", "residual", ["ef_conservation"]),
    ("fp16_bert25", "bytes", ["probe_vs_fabric", "wire_volume"]),
]


def build():
    """Configures (once) and builds; returns False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 4)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def run_binary(args):
    """Runs the benchmark in its own process group; returns (code, out, err)."""
    proc = subprocess.Popen([BINARY] + args, cwd=BUILD, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return 1, out, err + "\ne2ebench: run timed out\n"
    return proc.returncode, out, err


def result_of(out):
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def negative_controls(seconds):
    rejected_all = True
    for workload, fault, must_fail in NEGATIVE_CONTROLS:
        code, out, err = run_binary(["--workload", workload, "--seed", "1",
                                     "--seconds", str(seconds), "--trace", "0",
                                     "--corrupt", fault])
        result = result_of(out) if code == 0 else None
        failed = [line.split()[2] for line in err.splitlines()
                  if line.startswith("CHECK FAILED:")]
        rejected = (result is not None and result["correct"] is False and
                    all(name in failed for name in must_fail))
        rejected_all &= rejected
        print(f"{workload:13s} corrupt={fault:9s} "
              f"{'rejected' if rejected else 'NOT REJECTED'} by "
              f"{', '.join(failed) or 'nothing'}")
    return 0 if rejected_all else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--negative-controls", action="store_true",
                        help="inject one fault per check and show each "
                             "check rejects the run")
    args = parser.parse_args()
    if not build():
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    if args.negative_controls:
        return negative_controls(4)
    if not args.workload:
        parser.error("--workload is required")
    code, out, err = run_binary(["--workload", args.workload, "--seed",
                                 args.seed, "--seconds", args.seconds,
                                 "--trace", args.trace])
    sys.stderr.write(err)
    if code != 0 or result_of(out) is None:
        return code or 1
    print(out.strip().splitlines()[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
