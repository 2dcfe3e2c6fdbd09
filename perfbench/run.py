#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/bench.exe with
dune (no shared build cache, so nothing is written outside the checkout),
runs it, and passes its output through: the last line of stdout is the
JSON result. Build messages go to stderr. It exits non-zero without a
result when the checkout lacks the sources or the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

SCRATCH = ".perfbench"
RUN_TIMEOUT_S = 170


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha1:" + h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            print(f"perfbench: {need} not found; run from the root of a full "
                  "checkout of the repository", file=sys.stderr)
            return 2

    root = os.getcwd()
    env = dict(os.environ,
               DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(root, SCRATCH, "xdg-cache"),
               XDG_CONFIG_HOME=os.path.join(root, SCRATCH, "xdg-config"),
               PERFBENCH_COMMIT=source_id())
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/bench.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    try:
        run = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--dir", SCRATCH],
            env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
