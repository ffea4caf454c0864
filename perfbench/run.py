#!/usr/bin/env python3
"""Build and run the StegFS benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hidden-read --seed 1 --seconds 10 --trace 0

The Go program in this directory is built from source into .bench_build/
(the build cache lives there too, so nothing is written outside the
checkout) and then run with the same arguments. Its last line of output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        # The go command writes telemetry counters under the user config
        # directory; keep that inside the build directory as well.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", os.path.join(build, "trace")]
    return subprocess.run([binary] + args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
