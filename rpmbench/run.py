#!/usr/bin/env python3
"""End-to-end benchmark of the train and serve paths (see README.md).

    python3 rpmbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the rpmbench binary and the
shipped rpm_serve from the checkout's sources into .bench_build/ (the
first run configures and compiles; later runs only relink what changed),
runs one workload in a fresh scratch directory under .bench_build/tmp/,
and relays its output: the last line of stdout is the result object.
Exits non-zero, printing no result, when the sources are missing, the
build fails, the run fails or times out, or the load generator could not
keep its schedule.
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
# The binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
SOURCES = [ROOT / "src", ROOT / "examples" / "rpm_serve.cc", HERE]


def die(msg):
    print(f"rpmbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (
        ROOT / "examples" / "rpm_serve.cc"
    ).is_file():
        die(f"no repository sources next to the benchmark in {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", jobs,
         "--target", "rpmbench", "rpm_serve_bin"],
        stdout=sys.stderr, check=True)


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def source_digest():
    """SHA-1 over the measured sources, so results from checkouts without
    git history can still be told apart."""
    h = hashlib.sha1()
    for base in SOURCES:
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def stop_group(proc):
    """Kills whatever is left of the run's process group (the benchmark
    and any rpm_serve it started) and waits until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    # SIGTERM unwinds through the finally blocks below like Ctrl-C does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        die(f"build failed: {e}")
    (BUILD / "tmp").mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=BUILD / "tmp")
    proc = None
    try:
        args = sys.argv[1:]
        if "--reference" not in args:
            args += ["--reference", str(HERE / "reference.txt")]
        proc = subprocess.Popen(
            [str(BUILD / "rpmbench"), *args, "--tmp", tmp,
             "--commit", commit(), "--source-digest", source_digest()],
            cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die(f"run exceeded {RUN_TIMEOUT_S} s")
        sys.stdout.write(out.decode())
        return proc.returncode
    finally:
        if proc is not None:
            stop_group(proc)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
