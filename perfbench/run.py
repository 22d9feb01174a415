#!/usr/bin/env python3
"""Build the benchmark suite from source and run it.

Run from the root of a checkout of this repository:

    python3 perfbench/run.py --workload batch-paper-index --seed 2005 \
        --seconds 15 --trace 0

Every argument is passed to perfbench/suite.exe (see suite.ml, or
``--help``).  The suite's last line of standard output is the JSON
result.  Exits non-zero, printing no result, when the working directory
is not a checkout of the repository or the build fails.
"""

import os
import shutil
import subprocess
import sys

SUITE = os.path.join("_build", "default", "perfbench", "suite.exe")


def main():
    root = os.getcwd()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("run.py: run from the repository root (no dune-project or lib/ here)\n")
        return 2
    dune = shutil.which("dune")
    if dune is None:
        sys.stderr.write("run.py: dune is not on PATH\n")
        return 2
    # The shared dune cache lives outside the checkout; build inside it.
    build = subprocess.run(
        [dune, "build", "--root", root, "--cache", "disabled", "--display", "quiet",
         "./perfbench/suite.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return build.returncode or 1
    sys.stdout.flush()
    return subprocess.run([SUITE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
