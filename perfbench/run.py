#!/usr/bin/env python3
"""Benchmark entry point: builds the benchmark driver and the `ogc` CLI
from source with dune, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree.  Build output goes to stderr; the
last line of stdout is the JSON result.  Workloads, metrics and layers
are described in perfbench/README.md.
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DRIVER = os.path.join(ROOT, "_build", "default", "perfbench", "ogcbench.exe")
OGC = os.path.join(ROOT, "_build", "default", "bin", "ogc.exe")
RUN_TIMEOUT_S = 175


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found next to perfbench/; "
                  "run from the root of an ogc source tree", file=sys.stderr)
            return 2
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    # No shared dune cache: the build reads and writes inside the tree only.
    build = subprocess.run(
        dune + ["build", "--root", ROOT, "./perfbench/ogcbench.exe", "./bin/ogc.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"))
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = [DRIVER, *sys.argv[1:], "--ogc", OGC,
            "--inputs", os.path.join("perfbench", "inputs"), "--tmp", ".perfbench"]
    # A session of its own, so a timeout takes down the driver and every
    # server it started.
    proc = subprocess.Popen(args, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 3
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGINT)
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
