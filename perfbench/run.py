#!/usr/bin/env python3
"""Build and run the perfbench end-to-end benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload cold --seed 1 --seconds 20 --trace 0

The script builds the Go benchmark in perfbench/ against the repository's
own sources and runs it with the given arguments. Everything the build
writes (binary, Go build cache, temporary files) stays under the build
directory: $CARGO_TARGET_DIR when set, else .bench_build, relative to the
current directory. The benchmark's last line of output is its JSON result;
the exit code is the benchmark's, or 2 when the build fails.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out_dir = os.path.join(build_root, "perfbench")
    home = os.path.join(out_dir, "home")
    tmp = os.path.join(out_dir, "tmp")
    for d in (out_dir, home, tmp):
        os.makedirs(d, exist_ok=True)

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out_dir, "gocache"),
        "GOPATH": os.path.join(out_dir, "gopath"),
        "GOMODCACHE": os.path.join(out_dir, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOENV": "off",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })

    binary = os.path.join(out_dir, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                               stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    args = sys.argv[1:]
    if not any(a == "--trace-dir" or a.startswith("--trace-dir=") for a in args):
        args += ["--trace-dir", out_dir]
    sys.stdout.flush()
    try:
        run = subprocess.run([binary] + args, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
