#!/usr/bin/env python3
"""Build and run the benchmark harness from the root of a source checkout.

    python3 perfbench/run.py --workload regress --seed 1 --seconds 25 --trace 0

Builds ``perfbench/bench.exe`` with dune (build output goes to stderr),
then runs it with the given arguments plus ``--commit``: the git revision,
or a digest of the sources outside a git work tree. The harness
prints a host line and, as its last line, the result object. Exits
non-zero, without a result, when the tree is not a full checkout or the
build fails.
"""

import hashlib
import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def git(*args):
    try:
        out = subprocess.run(["git"] + list(args), capture_output=True, text=True,
                             timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def source_digest():
    """'src-' + a digest of the sources the harness builds from."""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f)
            for d, dirs, files in os.walk(top)
            if os.path.join("perfbench", "out") not in d and "__pycache__" not in d
            for f in files)
        for path in paths:
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def commit():
    """The checked-out git revision, or a digest of the sources when this
    tree is not a git work tree of its own."""
    top = git("rev-parse", "--show-toplevel")
    if top and os.path.realpath(top) == os.path.realpath("."):
        rev = git("describe", "--always", "--dirty", "--abbrev=12")
        if rev:
            return rev
    return source_digest()


def run_bounded(cmd, timeout, **kwargs):
    """Run cmd to completion. On timeout, interrupt or termination kill it
    and wait for it to end, so no process outlives this script."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s did not finish within %d s" % (cmd[0], timeout))
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main(argv):
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("%s not found: run from the root of a full source checkout" % needed)
    code = run_bounded(["dune", "build", "--root", ".", "./perfbench/bench.exe"],
                       BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        fail("build failed (exit %d)" % code)
    sys.stdout.flush()
    return run_bounded([EXE] + argv + ["--commit", commit()], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
