#!/usr/bin/env python3
"""Build and run the QR-DTM benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <bank|vacation-chk|hot-qstore|openloop> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (a Cargo package of its own that depends
on the repository's crates by path) in release mode and offline, into
$CARGO_TARGET_DIR (default `.bench_build`), then runs one workload in a
child process and relays its output. The last line of standard output is
the JSON result. The exit code is the benchmark's: 0 when every check
passed, nonzero (and no result) when the build or a check failed.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
