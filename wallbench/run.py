#!/usr/bin/env python3
"""Build the wall-clock benchmark from source and run one workload.

Usage, from the repository root:

    python3 wallbench/run.py --workload train-laoram-mem --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark binary (see wallbench/README.md).
The Go build cache, the binary and the disk arenas of the sealed workload
all live under the build directory ($CARGO_TARGET_DIR, default
.bench_build), so nothing is written outside the checkout. The exit code is
the benchmark's; a failed build or a run over its time limit exits non-zero
without printing a result.
"""

import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        GOWORK="off",
    )
    exe = os.path.join(build, "wallbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("wallbench: build failed", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix="run-", dir=build)
    try:
        ran = subprocess.run([exe, *sys.argv[1:], "-workdir", workdir], cwd=ROOT, env=env, timeout=RUN_LIMIT_S)
        return ran.returncode
    except subprocess.TimeoutExpired:
        print(f"wallbench: run exceeded {RUN_LIMIT_S}s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
