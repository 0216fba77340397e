#!/usr/bin/env python3
"""Builds and runs the sm-mincut benchmark from the root of a checkout.

    python3 perfbench/run.py --workload rhg_default --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --shape-check 1 2

The first form generates the workload for the seed in a process of its
own, measures it in another, and prints one JSON object as the last line
of standard output. The second checks that two seeds generate workloads
of the same shape. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s; leave room for generation and clean-up.
RUN_TIMEOUT_S = 120
GEN_TIMEOUT_S = 40
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")).resolve()


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return target_dir() / "release" / "perfbench"


def clean_env():
    """The timed runs keep tracing and the SIMD override off."""
    env = dict(os.environ)
    env.pop("SMC_TRACE", None)
    env.pop("SMC_SIMD", None)
    return env


def source_digest():
    """Digest of the library sources: stands in for the commit when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(ROOT.glob("crates/**/*.rs")) + sorted(ROOT.glob("crates/**/Cargo.toml")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_child(cmd, timeout, capture):
    """Runs one child and waits for it to end; kills it on timeout."""
    proc = subprocess.Popen(cmd, env=clean_env(),
                            stdout=subprocess.PIPE if capture else sys.stderr)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{cmd[1]} timed out after {timeout} s")
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--shape-check", type=int, nargs=2, metavar=("SEED_A", "SEED_B"))
    args = p.parse_args()

    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        fail(f"{ROOT} is not a checkout of the repository (crates/ is missing)")
    binary = build()

    if args.shape_check:
        a, b = args.shape_check
        code, _ = run_child([str(binary), "shape", "--seed", str(a), "--seed", str(b)],
                            RUN_TIMEOUT_S, capture=False)
        sys.exit(code)

    if args.workload is None or args.seed is None or args.seconds is None:
        p.error("--workload, --seed and --seconds are required")
    print(f"# commit={git_commit()} source_digest={source_digest()}", flush=True)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        code, _ = run_child([str(binary), "gen", "--workload", args.workload,
                             "--seed", str(args.seed), "--out", str(work)],
                            GEN_TIMEOUT_S, capture=False)
        if code != 0:
            fail(f"generating {args.workload} failed with exit code {code}")
        code, out = run_child([str(binary), "run", "--workload", args.workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace), "--dir", str(work)],
                              RUN_TIMEOUT_S, capture=True)
        sys.stdout.write(out.decode())
        sys.stdout.flush()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
