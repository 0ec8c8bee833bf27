#!/usr/bin/env python3
"""Build and run the squash benchmark on one workload.

Run from the root of a checkout:

    python3 squashbench/run.py --workload paper-grid|decomp-storm|squash-sweep \
        [--seed N] [--seconds S] [--trace 0|1]

The benchmark executable (squashbench/main.ml) is built from source with dune
inside the checkout (dune's shared cache is disabled, so nothing is read or
written outside it), then run with the same arguments.  Its standard output
is passed through; the last line is the JSON result.  Any build or run
failure exits non-zero without a result line.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
TARGET = "squashbench/main.exe"


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "dune-project")):
        sys.exit("squashbench: no dune-project in %s; run from a full checkout" % root)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, "--display", "quiet", "./" + TARGET],
        cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.exit("squashbench: build failed (exit %d)" % build.returncode)
    exe = os.path.join(root, "_build", "default", TARGET)
    run = subprocess.run([exe] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
