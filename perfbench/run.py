#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <snb-insert|snb-window>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The build goes to $CARGO_TARGET_DIR if set,
else .bench_build (with the dune cache off, so nothing is written outside
the checkout).  The benchmark's socket, journal and snapshot files live in
a private directory under the build directory, removed on exit.  The last
line of standard output is the result object; the exit code is non-zero
when the build, a correctness check or the run itself failed.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

WORKLOADS = ("snb-insert", "snb-window")
PINNED_ENV = ("TRIC_SHARDS", "TRIC_METRICS", "TRIC_WINDOW", "TRIC_AUDIT")
RUN_BUDGET_S = 170.0
SOURCES = ("dune-project", "dune", "lib", "perfbench")


def dune():
    found = shutil.which("dune")
    if found:
        return found
    for cand in sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune"))):
        return cand
    return None


def git(*args):
    try:
        out = subprocess.run(("git",) + args, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the program under test and the benchmark, so a result
    names its code even where the checkout is not a git repository."""
    h = hashlib.sha256()
    paths = []
    for top in SOURCES:
        if os.path.isfile(top):
            paths.append(top)
        for base, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if not d.startswith((".", "_")))
            paths.extend(os.path.join(base, f) for f in files)
    for path in sorted(set(paths)):
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def fingerprint():
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "source_sha256": source_digest(),
    }


def kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    pinned = [v for v in PINNED_ENV if v in os.environ]
    if pinned:
        sys.exit("refusing to run: %s set; the benchmark pins every engine parameter" % ", ".join(pinned))
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run.py: run from the repository root (dune-project and lib/ not found)")
    exe_dune = dune()
    if exe_dune is None:
        sys.exit("run.py: dune not found")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [exe_dune, "build", "--root", ".", "--build-dir", build_dir, "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit("run.py: build failed")
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")

    scratch_root = os.path.join(build_dir, "perfbench-tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=scratch_root)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--tmpdir", scratch, "--fingerprint", json.dumps(fingerprint())]
    # A rebuild with nothing to do takes a second or two, so the run
    # itself gets the rest of the three minutes.
    budget = RUN_BUDGET_S
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=budget)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %.0f s" % budget, file=sys.stderr)
        code = 1
    except KeyboardInterrupt:
        code = 1
    finally:
        # The server children live in the benchmark's session: reap
        # whatever is left of it.
        kill_group(proc)
        proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
