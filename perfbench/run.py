#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a fastflip checkout:

    python3 perfbench/run.py --workload evolve --seed 1 --seconds 20 --trace 0

perfbench/perfbench.exe and the fastflip CLI the serve workload starts
as its daemon are built with dune inside the checkout.
Everything the run writes stays under the checkout: the build in _build/,
scratch stores, sockets and traces in .perfbench/. The last line of
standard output is the run's JSON result; the exit code is nonzero when
the build fails or any output check fails.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("evolve", "faults", "protect", "serve")
TARGETS = ("perfbench/perfbench.exe", "bin/fastflip_cli.exe")
PERFBENCH = "_build/default/perfbench/perfbench.exe"
CLI = "_build/default/bin/fastflip_cli.exe"


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except OSError:
        pass


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a fastflip checkout", file=sys.stderr)
        return 2

    scratch = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(os.path.join(scratch, "tmp"), exist_ok=True)
    # FF_* variables change what the analysis does (prover, engine, domain
    # count); the benchmark fixes them itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FF_")}
    env.update(
        DUNE_CACHE="disabled",
        XDG_CACHE_HOME=os.path.join(scratch, "cache"),
        TMPDIR=os.path.join(scratch, "tmp"),
    )

    build = subprocess.run(
        ["dune", "build", "--root", ".", "-j", "2", *TARGETS],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # perfbench runs in its own process group with the serve daemon it
    # starts; whatever is left of the group when it ends is killed.
    bench = subprocess.Popen(
        [
            PERFBENCH,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--cli", CLI,
        ],
        env=env,
        start_new_session=True,
    )
    signal.signal(signal.SIGTERM, lambda *_: kill_group(bench.pid))
    try:
        code = bench.wait()
    finally:
        kill_group(bench.pid)
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
