#!/usr/bin/env python3
"""Build the robust-read benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: register-rw, keys-uniform, keys-hot, keys-failover, or all
of them in turn with --workload all.  The last line of standard output
of each workload is its JSON result (perfbench/bench.ml); build output
goes to standard error.  Everything the run writes stays inside
the checkout: _build/ for dune, .perfbench_tmp/ for sockets and
temporary files.
"""

import argparse
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
WORKLOADS = ["register-rw", "keys-uniform", "keys-hot", "keys-failover"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir(os.path.join("lib", "net"))):
        print("perfbench: run from the root of a checkout of the program "
              "(dune-project and lib/net not found)", file=sys.stderr)
        return 2

    tmp = os.path.abspath(".perfbench_tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp,
               XDG_CACHE_HOME=os.path.join(tmp, "cache"))
    # The benchmark measures the runtime's default GC settings.
    env.pop("OCAMLRUNPARAM", None)

    try:
        build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/bench.exe"],
                               stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        try:
            code = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print("perfbench: run timed out", file=sys.stderr)
            return 1
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
