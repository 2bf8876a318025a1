#!/usr/bin/env python3
"""Build the ALSS benchmark and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve_unique --seed 1 --seconds 25 --trace 0

Builds the `alss` binary and the benchmark driver in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root), then runs
the driver. The driver prints its report and, as the last line of stdout,
the JSON result; it exits non-zero if any answer check fails. Build output
goes to stderr. See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("serve_unique", "serve_repeat")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    repo_manifest = os.path.join(root, "Cargo.toml")
    if not os.path.isfile(repo_manifest) or not os.path.isdir(os.path.join(root, "crates")):
        print(f"run.py: {root} is not an ALSS checkout (no Cargo.toml and crates/)", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = (
        ["--manifest-path", repo_manifest, "--bin", "alss"],
        ["--manifest-path", os.path.join(bench_dir, "Cargo.toml")],
    )
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + extra
        if subprocess.call(cmd, env=env, stdout=sys.stderr) != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    return subprocess.call(
        [
            os.path.join(release, "alss-perfbench"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--alss", os.path.join(release, "alss"),
            "--work", os.path.join(target, "perfbench", args.workload),
        ],
        env=env,
    )


if __name__ == "__main__":
    sys.exit(main())
