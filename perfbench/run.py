#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipelines-hd --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --smoke            # every workload, tiny
    python3 perfbench/run.py --regen-expected   # rewrite expected.txt

The first call configures and builds perfbench/ (which compiles the
PolyFuse libraries from src/) into .bench_build/perfbench; later calls
only rebuild what changed. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result; for one --workload it
holds exactly the end-to-end (--trace 0) or per-layer (--trace 1)
metrics BENCHMARK.json declares. Exits non-zero, without a result,
when the sources or the build are missing.
"""

import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def git_sha():
    """HEAD of the checkout, or "unknown" when it is not a git tree."""
    def git(*args):
        out = subprocess.run(["git"] + list(args), capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else ""
    try:
        top = git("rev-parse", "--show-toplevel")
        if not top or os.path.realpath(top) != os.path.realpath("."):
            return "unknown"
        return git("rev-parse", "HEAD") or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("PolyFuse sources (src/) not found; run from the root of "
             "a checkout")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    # Keep the compiler's temporaries inside the checkout.
    tmp = os.path.abspath(os.path.join(".bench_build", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def narrow(line, trace):
    """The result line with exactly the metrics BENCHMARK.json declares
    for this kind of run; a layer the workload does not exercise reads
    0."""
    with open("BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    result = json.loads(line)
    got = result["metrics"]
    result["metrics"] = {
        m["name"]: {"value": got.get(m["name"], {}).get("value", 0),
                    "unit": m["unit"]}
        for m in declared}
    return json.dumps(result)


def main():
    build()
    args = sys.argv[1:]
    cmd = [os.path.join(BUILD_DIR, "perfbench")] + args + [
        "--git-sha", git_sha()]
    sys.stdout.flush()
    single = "--workload" in args and not (
        {"--smoke", "--regen-expected"} & set(args))
    if not single:
        sys.exit(subprocess.run(cmd).returncode)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode or 1)
    i = args.index("--trace") + 1 if "--trace" in args else len(args)
    trace = args[i:i + 1] == ["1"]
    print("\n".join(lines[:-1]))
    print(narrow(lines[-1], trace))


if __name__ == "__main__":
    main()
