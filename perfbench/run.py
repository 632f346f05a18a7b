#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--trace 0` runs the end-to-end binary; `--trace 1` runs the traced
binary, which carries a counting allocator. Build output goes to stderr;
the binary's stdout (whose last line is the JSON result) passes through.
The exit code is the build's when the build fails, else the binary's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    trace = "0"
    if "--trace" in argv[:-1]:
        trace = argv[argv.index("--trace") + 1]
    binary = "perfbench-traced" if trace == "1" else "perfbench"
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest, "--bins"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed with code {build.returncode}", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    sys.stdout.flush()
    return subprocess.run([os.path.join(target, "release", binary), *argv]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
