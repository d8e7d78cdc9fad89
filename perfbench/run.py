#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lookup-large|update-small|serve \
        --seed N --seconds S --trace 0|1

The OCaml sources of the benchmark live in perfbench/_ocaml, which the
repository's own `dune build` never scans. This script assembles a dune
workspace in .bench_build/ws from that directory and a copy of lib/, builds
it in release mode, runs the benchmark binary and passes its output
through. The binary's last line of output is the result object. With
--trace 1 the span log is written to .bench_build/traces/.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WS = os.path.join(BUILD, "ws")
EXE = os.path.join(WS, "_build", "default", "bench", "perfbench.exe")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def sync_tree(src, dst):
    """Mirror src into dst, keeping modification times so dune sees an
    unchanged file as unchanged."""
    if os.path.isdir(dst):
        shutil.rmtree(dst)
    shutil.copytree(src, dst, copy_function=shutil.copy2)


def build_env():
    env = dict(os.environ)
    # Keep dune's shared cache and runtime event rings inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(BUILD, "cache")
    env["OCAML_RUNTIME_EVENTS_DIR"] = os.path.join(BUILD, "events")
    return env


def build(env):
    lib = os.path.join(ROOT, "lib")
    src = os.path.join(HERE, "_ocaml")
    if not os.path.isdir(lib) or not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no program sources here: run from the root of a checkout that has lib/ and dune-project")
    if not os.path.isdir(src):
        fail("missing " + src)
    os.makedirs(WS, exist_ok=True)
    for d in ("cache", "events", "traces"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    shutil.copy2(os.path.join(src, "dune-project"), os.path.join(WS, "dune-project"))
    sync_tree(os.path.join(src, "bench"), os.path.join(WS, "bench"))
    sync_tree(lib, os.path.join(WS, "lib"))
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", WS, "--profile", "release",
             "./bench/perfbench.exe"],
            env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny: small inputs for the smoke test")
    args = ap.parse_args()
    env = build_env()
    build(env)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD, "traces", "%s-seed%d.jsonl" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run timed out")
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
