#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <experiments|paper-sweep|serve-mix> \
        --seed N --seconds S --trace <0|1>

Builds the `perfbench` package (release profile, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs it with the same
arguments. Build output goes to standard error; the benchmark's report
goes to standard output and ends with one JSON line. The exit code is the
benchmark's, or 2 when the build fails.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# What the program is built from; hashed when the checkout has no git.
SOURCES = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        base = ROOT / top
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for f in files:
            rel = f.relative_to(ROOT).as_posix()
            if "/target/" in rel:
                continue
            h.update(rel.encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def revision():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none(src-sha256:" + source_digest() + ")"


def rustc_version():
    try:
        return subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    env["PERFBENCH_RUSTC"] = rustc_version()
    env["PERFBENCH_COMMIT"] = revision()
    exe = target / "release" / "perfbench"
    work = target / "perfbench-work"
    return subprocess.run([str(exe), *sys.argv[1:], "--work-dir", str(work)], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
