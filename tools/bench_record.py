"""Write ``BENCH_<PR>.json``: one record of this checkout's benchmark,
reports and test suite.

    python3 tools/bench_record.py PR

It records, at the repository root:

- ``RUNS`` runs of ``bench/run.py --workload all --seed 1 --trace 0`` at
  ``BENCHMARK.json``'s ``run_seconds``: every run's end-to-end metrics, and
  their median and quartiles per workload;
- the work counts of one ``--trace 1`` run (every metric not in seconds);
- the lines of ``src/`` and ``tools/reachability.py``'s unreached count;
- one sha256 over the lines ``tools/report_digests.py`` prints, on inputs
  generated afresh into ``DIGEST_WORKDIR``, a fixed path: reports embed
  their input paths, so the hash is equal for equal reports of any
  checkout;
- the tier-1 suite's wall time and its ten slowest tests;
- the machine: Python and numpy versions, cores, the OpenBLAS core numpy's
  bundled OpenBLAS picked, and numpy's SIMD level, which move report bytes;
- ``NOTES`` on the readings known to mislead.

Runs one thing at a time; a record takes about ten minutes on two cores.
Two records must not run at once, since they share ``DIGEST_WORKDIR``.
Not part of the test suite.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS = 5  # untraced bench runs per record
RUN_SECONDS = 25  # BENCHMARK.json's run_seconds, which main checks
DIGEST_WORKDIR = "/tmp/orbitlab-bench-record"
DIGEST_LINES = 110  # reports of the three workloads at seeds 1 and 9001
SLOWEST = 10
NOTES = [
    "report_tail_s is the 11th-largest report wall of the timed part "
    "(bench/run.py _tail), so which report it reads depends on how many "
    "passes fit into run_seconds: on diag-lab it reads the slowest report "
    "when 11 or more passes fit and the second-slowest when 10 do.",
    "peak_rss_mb grows with the number of timed passes, so a faster tree, "
    "which fits more passes into run_seconds, reads a higher peak for the "
    "same program.",
    "setup_s is noisy on a shared host; compare two trees in alternating "
    "runs, not by one record each.",
    "cli.bytes_written in the trace counts depends on where the checkout "
    "lives, because reports embed input paths under its .bench_work/.",
]


def _run(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, **kwargs)


def bench_runs(trace: int) -> dict:
    """``{workload: {"correct": ..., "metrics": {name: {"value", "unit"}}}}``
    of one ``bench/run.py --workload all --seed 1`` run."""
    proc = _run([sys.executable, "bench/run.py", "--workload", "all", "--seed", "1",
                 "--trace", str(trace), "--seconds", str(RUN_SECONDS)])
    out, workload = {}, None
    for line in proc.stdout.splitlines():
        if line.startswith("{"):
            out[workload] = json.loads(line)
        elif re.match(r"\S+ \S+ = ", line):
            workload = line.split()[0]
    if proc.returncode or not out:
        raise RuntimeError(f"bench/run.py --trace {trace} failed:\n{proc.stdout}{proc.stderr}")
    return out


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def end_to_end() -> dict:
    runs = [bench_runs(0) for _ in range(RUNS)]
    out = {}
    for workload in runs[0]:
        names = runs[0][workload]["metrics"]
        out[workload] = {
            "correct": all(r[workload]["correct"] for r in runs),
            "metrics": {n: dict(summary([r[workload]["metrics"][n]["value"] for r in runs]),
                                unit=names[n]["unit"]) for n in names}}
    return out


def work_counts() -> dict:
    return {workload: {"correct": doc["correct"],
                       "counts": {n: m["value"] for n, m in doc["metrics"].items()
                                  if m["unit"] != "s"}}
            for workload, doc in bench_runs(1).items()}


def report_digest() -> dict:
    """sha256 over ``tools/report_digests.py``'s lines on fresh inputs."""
    shutil.rmtree(DIGEST_WORKDIR, ignore_errors=True)
    try:
        proc = _run([sys.executable, "tools/report_digests.py", SRC, DIGEST_WORKDIR])
    finally:
        shutil.rmtree(DIGEST_WORKDIR, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or len(lines) != DIGEST_LINES:
        raise RuntimeError(f"report_digests.py gave {len(lines)} lines:\n{proc.stderr}")
    return {"sha256": hashlib.sha256(proc.stdout.encode()).hexdigest(), "lines": len(lines),
            "workdir": DIGEST_WORKDIR}


def code_size() -> dict:
    lines = 0
    for path in sorted(glob.glob(os.path.join(SRC, "orbitlab", "*.py"))):
        with open(path) as fh:
            lines += sum(1 for _ in fh)
    last = _run([sys.executable, "tools/reachability.py"]).stdout.splitlines()[-1]
    unreached, defined = map(int, re.match(r"(\d+) of (\d+) functions", last).groups())
    return {"src_lines": lines, "unreached_functions": unreached, "functions": defined}


def tier1() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    start = time.perf_counter()
    proc = _run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                 f"--durations={SLOWEST}"], env=env)
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    slowest = [{"seconds": float(m[1]), "phase": m[2], "test": m[3]}
               for m in (re.match(r"(\d+\.\d+)s (\w+)\s+(\S+)$", ln) for ln in lines) if m]
    return {"wall_s": wall, "exit_code": proc.returncode, "summary": lines[-1] if lines else "",
            "slowest": slowest}


def openblas() -> dict:
    """The core and configuration numpy's bundled OpenBLAS reports."""
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):  # scipy-openblas64 and scipy-openblas32
            core = getattr(lib, f"scipy_openblas_get_corename{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if core is not None and config is not None:
                core.restype = config.restype = ctypes.c_char_p
                return {"core": core().decode(), "config": config().decode()}
    return {"core": None, "config": None}


def machine() -> dict:
    import numpy
    from numpy._core import _multiarray_umath as umath
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(), "cores_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "openblas": openblas(),
            "numpy_simd_baseline": list(umath.__cpu_baseline__),
            "numpy_simd_found": [f for f in umath.__cpu_dispatch__
                                 if umath.__cpu_features__.get(f)]}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        print("usage: python3 tools/bench_record.py PR", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        if json.load(fh)["run_seconds"] != RUN_SECONDS:
            print(f"error: BENCHMARK.json's run_seconds is not {RUN_SECONDS}", file=sys.stderr)
            return 2
    record = {"pr": int(argv[0]), "runs": RUNS, "run_seconds": RUN_SECONDS,
              "machine": machine(), "report_digest": report_digest(), "code": code_size(),
              "work_counts": work_counts(), "end_to_end": end_to_end(), "tier1": tier1(),
              "notes": NOTES}
    path = os.path.join(ROOT, f"BENCH_{argv[0]}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
