#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig2-read --seed 1 --seconds 20 --trace 0

The benchmark is a Go program (perfbench/, its own module, built against
the library in the checkout). It is built into the directory named by
CARGO_TARGET_DIR (default .bench_build), with the Go build cache kept
there too, so nothing is written outside the checkout. Every argument is
passed on to the program, whose last line of output is the JSON result.
"""

import os
import subprocess
import sys

# One run is measured for --seconds host seconds; anything still going
# after this long is stopped.
RUN_TIMEOUT_S = 175


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(
        os.environ,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOENV="off",
        GOFLAGS="",
        CGO_ENABLED="0",
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "-out", os.path.join(build, "trace")] + sys.argv[1:]
    try:
        return subprocess.run(args, cwd=root, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
