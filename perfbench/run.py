#!/usr/bin/env python3
"""Build the perfbench command from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload small-io --seed 1 --seconds 10 --trace 0

Every flag is passed to the Go command (see main.go). The build goes to
.bench_build/ at the root of the repository, with the Go build cache there
too, so a run reads and writes nothing outside the checkout. The command's
last line of standard output is the JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOMODCACHE": os.path.join(build, "go-mod"),
        "GOPATH": os.path.join(build, "go-path"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed (the benchmark builds the repository it sits in)", file=sys.stderr)
        return 2
    sys.stdout.flush()
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded 175 s and was stopped", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
