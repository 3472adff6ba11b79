#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, Release) into .bench_build/ -- or into
$PERFBENCH_BUILD_DIR when set -- and later calls only rebuild what changed.
Build output goes to standard error; standard output is the benchmark's
own, whose last line is the result object described in perfbench/README.md.
Traced runs write their spans under the build directory.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    for cmd in (configure,
                ["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main(argv):
    build_root = os.environ.get("PERFBENCH_BUILD_DIR") or os.path.join(
        ROOT, ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(build_dir, "perfbench"), *argv,
           "--trace-dir", os.path.join(build_root, "traces")]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
