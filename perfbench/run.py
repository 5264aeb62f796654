#!/usr/bin/env python3
"""NETEMBED benchmark entry point.

    python3 perfbench/run.py --workload churn|hard|tiny --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Builds netembed_server, netembed_cli and
the benchmark runner (perfbench/nebench.exe) from source with dune into
.bench_build/, generates the workload's host with
`netembed_cli generate --kind planetlab`, then runs either the
end-to-end run (--trace 0) or the traced per-layer run (--trace 1).
The last line of standard output is the result object.  Exits nonzero
when the build fails, an answer fails its check, or the run breaks.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
TARGETS = ["./bin/netembed_server.exe", "./bin/netembed_cli.exe", "./perfbench/nebench.exe"]
SITES = {"churn": 296, "hard": 296, "tiny": 40}
HOST_SEED = 42


def exe(target):
    return os.path.join(BUILD_DIR, "default", target[2:])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SITES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("bin") and os.path.isdir("lib")):
        sys.exit("run.py: run from the root of a NETEMBED checkout (dune-project, bin/, lib/)")
    if shutil.which("dune") is None:
        sys.exit("run.py: dune not found")

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release"] + TARGETS,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stderr[-4000:])
        sys.exit("run.py: build failed")

    out = os.path.join(OUT_DIR, args.workload)
    os.makedirs(out, exist_ok=True)
    host = os.path.join(OUT_DIR, "planetlab-%d.graphml" % SITES[args.workload])
    if not os.path.isfile(host):
        tmp = host + ".tmp"
        subprocess.run(
            [exe(TARGETS[1]), "generate", "--kind", "planetlab", "-n", str(SITES[args.workload]),
             "--seed", str(HOST_SEED), "-o", tmp],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        os.replace(tmp, host)

    cmd = [
        exe(TARGETS[2]),
        "trace" if args.trace else "e2e",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--host", host,
        "--server", exe(TARGETS[0]),
        "--clk-tck", str(os.sysconf("SC_CLK_TCK")),
        "--out", out,
    ]
    # The runner and the server it spawns share a new process group, so
    # a timeout takes both down.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("run.py: the run did not finish in 170 s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    sys.stdout.write(stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
