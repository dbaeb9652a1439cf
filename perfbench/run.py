#!/usr/bin/env python3
"""Build the perfbench Go program from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 30 --trace 0

Every build artifact (binary, Go build cache, telemetry and config files)
goes under .bench_build/ at the repository root, or under
$CARGO_TARGET_DIR when it is set. The program's standard output passes
through unchanged; its last line is the JSON result. Build failures go to
standard error and exit non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.abspath(os.path.join(ROOT, build))
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
    })
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, stderr=sys.stderr)
    except OSError as err:
        print(f"perfbench: cannot run the go toolchain: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
