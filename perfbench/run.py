#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release profile, offline) against the
repository's crates, then runs it with the same arguments. The last line
of standard output is the result as one JSON object. Traced runs also
write their spans to `<target dir>/perfbench-trace-<workload>.tsv`.
Exits non-zero, printing no result, when the repository's sources are
not beside this directory or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print("perfbench: repository sources not found next to perfbench/", file=sys.stderr)
        return 2
    # Cargo resolves a relative CARGO_TARGET_DIR against the working
    # directory; resolve it the same way to find the binary.
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--target-dir", target],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = list(argv)
    if "--trace" in args[:-1] and args[args.index("--trace") + 1] == "1":
        workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else "unknown"
        args += ["--trace-out", os.path.join(target, "perfbench-trace-%s.tsv" % workload)]
    binary = os.path.join(target, "release", "hirise-perfbench")
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
