#!/usr/bin/env python3
"""Build and run the Bristle wall-clock benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <roam|figures|loopback> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release profile, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs it with the same
arguments. Cargo's output goes to stderr; the benchmark's standard output
passes through unchanged, so its last line is the JSON result. The exit
code is the build's when the build fails, else the benchmark's. The
benchmark runs on one CPU at a time, moved round-robin between the CPUs
it may use (see `run_alternating`).
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Seconds the benchmark stays on one CPU before moving to the next.
SWITCH_S = 0.02


def source_identity():
    """The git commit when the checkout is a repository, otherwise a
    digest of the sources the benchmark builds from."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        return "git:" + out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    env["PERFBENCH_RUSTC"] = rustc_version()
    env["PERFBENCH_SOURCE"] = source_identity()
    scratch = os.path.join(ROOT, ".bench_build", "scratch")
    binary = os.path.join(target, "release", "perfbench")
    return run_alternating([binary, *sys.argv[1:], "--scratch", scratch], env)


def run_alternating(cmd, env):
    """Runs the benchmark, moving it to the next CPU this process may use
    every SWITCH_S seconds, and returns its exit code.

    On a shared host one virtual CPU is at times much slower than the
    other (the same set-up measured 15-16 ms pinned to one and 22-24 ms
    pinned to the other). A single-threaded run that stayed where the
    scheduler first put it would read fast or slow by luck; moving it
    round-robin makes every run sample each CPU equally."""
    cpus = sorted(os.sched_getaffinity(0))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        turn = 0
        while True:
            try:
                return proc.wait(timeout=SWITCH_S)
            except subprocess.TimeoutExpired:
                turn += 1
                try:
                    os.sched_setaffinity(proc.pid, {cpus[turn % len(cpus)]})
                except OSError:
                    pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
