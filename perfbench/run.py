#!/usr/bin/env python3
"""Builds and runs one workload of the dpho benchmark.

    python3 perfbench/run.py --workload hpo_paper|md_nnp|serve_mix \
        --seed N --seconds S --trace 0|1

Run from the root of a dpho checkout.  The first run configures and builds
perfbench/ (the library, dp_train, dpho_worker and the benchmark program) into
.bench_build/; later runs only check that the build is current.  Build output
goes to standard error, so the last line of standard output is the benchmark
program's JSON result.  The benchmark's self-tests run before every workload.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
TIMEOUT_S = 170


def source_id():
    """A content hash of the library sources and build files."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        paths.extend(os.path.join(base, f) for f in sorted(files))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no dpho sources next to perfbench/ (run from a checkout)")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench",
                    "perfbench_selftest", "dp_train", "dpho_worker"],
                   check=True, stdout=sys.stderr)


def run(argv, env, stdout=None):
    """Runs argv in its own process group; the whole group dies on timeout."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=stdout,
                            start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: {argv[0]} exceeded {TIMEOUT_S} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["hpo_paper", "md_nnp", "serve_mix"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    env = dict(os.environ, PERFBENCH_SOURCE_ID=source_id())
    sys.stdout.flush()
    if run([os.path.join(BUILD, "perfbench_selftest")], env, sys.stderr) != 0:
        sys.exit("perfbench: self-tests failed")
    code = run([os.path.join(BUILD, "perfbench"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", args.trace], env)
    sys.exit(code)


if __name__ == "__main__":
    main()
