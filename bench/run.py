"""orbitlab benchmark: seeded report workloads through ``orbitlab.cli.main``.

Usage (from the repository root):

    python3 bench/run.py --workload diag-lab --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload

One client in one process drives a closed loop: each report (a ``demo``,
``run`` or ``verify-certificate`` invocation) starts only after the
previous one is written.  A run

1. generates every input for the workload from ``--seed`` (INI configs,
   matrix files, certificates, demo arguments) under ``.bench_work/``;
2. times set-up in fresh interpreters (imports plus input generation);
3. runs one warm-up pass over the workload's reports and records a sha256
   of each report's bytes;
4. with ``--trace 0``, repeats whole passes until ``--seconds`` have
   elapsed and reports the end-to-end metrics; with ``--trace 1``, runs one
   untraced and two traced passes and reports the per-layer metrics.

Every report is checked: exit code 0, every assertion passed, the oracle
values the generator knows, and bytes identical to the warm-up pass (the
``*.timing.json`` sidecar excluded).  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
details go to ``.bench_results/``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
RESULTS = os.path.join(ROOT, ".bench_results")

# One client thread; BLAS stays single-threaded so the process never uses
# more threads than the two cores of the reference machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples the tail percentile must leave above it

E2E_UNITS = {"setup_s": "s", "reports_per_s": "1/s", "report_p50_s": "s",
             "report_tail_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; the values come from ``_layer_metrics``
LAYER_UNITS = {
    "seqspace.sup_norm.calls": "count",
    "seqspace.sup_norm.self_s": "s",
    "seqspace.norm_exceeds.calls": "count",
    "seqspace.norm_exceeds.self_s": "s",
    "seqspace.lin_comb.calls": "count",
    "seqspace.coords_scanned": "count",
    "seqspace.coords_calls": "count",
    "seqspace.closure_depth": "ratio",
    "seqspace.coords_per_scan": "count",
    "seqspace.self_s.under.ergodic.diagonal_mean_ergodic_verdict": "s",
    "seqspace.self_s.under.orbits.OrbitCloud.separated": "s",
    "seqspace.self_s.under.orbits.OrbitCloud.distance": "s",
    "seqspace.self_s.under.gallery.c0_witness": "s",
    "seqspace.self_s.under.gallery.bp_test": "s",
    "seqspace.self_s.under.cli.main": "s",
    "operators.power_apply.calls": "count",
    "operators.power_apply.self_s": "s",
    "operators.DiagonalOperator.apply.calls": "count",
    "operators.matrix_norm.calls": "count",
    "operators.matrix_norm.self_s": "s",
    "operators.power_bound_estimate.self_s": "s",
    "operators.read_matrix_file.self_s": "s",
    "orbits.separated.calls": "count",
    "orbits.separated.self_s": "s",
    "orbits.separated.hit_ratio": "ratio",
    "orbits.distance.calls": "count",
    "orbits.distance.hit_ratio": "ratio",
    "orbits.cloud_diagnostic.self_s": "s",
    "orbits.orbit.self_s": "s",
    "ergodic.cesaro.calls": "count",
    "ergodic.diagonal_mean_ergodic_verdict.total_s": "s",
    "ergodic.mean_ergodic_projection.calls": "count",
    "ergodic.mean_ergodic_projection.self_s": "s",
    "ergodic.certify_power_bounded.self_s": "s",
    "ergodic.decomposition_check.self_s": "s",
    "jdlg.jdlg_split.calls": "count",
    "jdlg.jdlg_split.self_s": "s",
    "jdlg.ktz_check.self_s": "s",
    "jdlg.half_sum.self_s": "s",
    "jdlg.diagonal_jdlg.self_s": "s",
    "gallery.c0_witness.calls": "count",
    "gallery.c0_witness.self_s": "s",
    "gallery.c0_witness.total_s": "s",
    "gallery.c0_witness.norm_scans": "count",
    "gallery.witness.entries_ratio": "ratio",
    "gallery.write_certificate.self_s": "s",
    "gallery.verify_certificate.total_s": "s",
    "cli.main.self_s": "s",
    "cli.write_json_atomic.self_s": "s",
    "cli.write_csv_atomic.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}

# Work counts that must repeat exactly between two traced passes.
DETERMINISTIC = [k for k, u in LAYER_UNITS.items()
                 if u in ("count", "bytes")] + ["seqspace.closure_depth",
                                                 "gallery.witness.entries_ratio"]


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR",
                   help="only import orbitlab and generate inputs into DIR")
    return p.parse_args(argv)


def _load_program():
    """Import orbitlab from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "orbitlab", "__init__.py")):
        print(f"error: no orbitlab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import orbitlab.cli
    if not os.path.abspath(orbitlab.cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported orbitlab from {orbitlab.cli.__file__}", file=sys.stderr)
        sys.exit(2)
    return orbitlab.cli


# ---------------------------------------------------------------------------
# Running one report

class Runner:
    """Runs reports in process and checks each against the warm-up pass."""

    def __init__(self, cli, reports, check):
        self.cli = cli
        self.reports = reports
        self.check = check
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run_one(self, rep) -> float:
        if os.path.isdir(rep.out_dir):
            shutil.rmtree(rep.out_dir)
        out, err = io.StringIO(), io.StringIO()
        problems = []
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(rep.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            problems.append("raised " + traceback.format_exc(limit=3).strip())
        wall = time.perf_counter() - t
        self.attempted += 1
        if rc != 0 and not problems:
            problems.append(f"exit code {rc}: {err.getvalue().strip()[-300:]}")
        if not problems:
            try:
                problems = self.check(rep, out.getvalue())
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"report unreadable: {exc!r}"]
        if not problems:
            digest = _digest(rep.out_dir, out.getvalue())
            first = self.digests.setdefault(rep.rid, digest)
            if digest != first:
                problems.append("report bytes differ from the warm-up pass")
        if problems:
            self.failures.append(f"{rep.rid}:{rep.label}: {'; '.join(problems)}")
        return wall

    def run_pass(self) -> tuple[float, list[float]]:
        t = time.perf_counter()
        walls = [self.run_one(rep) for rep in self.reports]
        return time.perf_counter() - t, walls


def _digest(out_dir: str, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    for root, _, files in sorted(os.walk(out_dir)):
        for name in sorted(files):
            if name.endswith(".timing.json"):
                continue
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, out_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Set-up

def _setup_probe(workload: str, seed: int, target: str) -> None:
    from workloads import generate
    _load_program()
    generate(workload, seed, target)


class SetupTimer:
    """Times set-up in fresh interpreters that import orbitlab and generate
    the inputs: process start to first report ready to run.  Probes are
    spread over the run, between passes, so that one slow stretch of the
    machine does not set every sample."""

    def __init__(self, workload: str, seed: int, work: str):
        self.cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                    "--seed", str(seed), "--setup-probe"]
        self.work = work
        self.times: list[float] = []

    def probe(self) -> None:
        if len(self.times) >= SETUP_REPEATS:
            return
        target = os.path.join(self.work, f"setup{len(self.times)}")
        t = time.perf_counter()
        proc = subprocess.run(self.cmd + [target], capture_output=True, text=True,
                              timeout=120)
        self.times.append(time.perf_counter() - t)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        shutil.rmtree(target)

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_REPEATS:
            self.probe()
        return self.times


# ---------------------------------------------------------------------------
# Metrics

def _tail(walls: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile leaving TAIL_BEYOND samples above it."""
    s = sorted(walls)
    n = len(s)
    i = max(n - TAIL_BEYOND - 1, 0)
    return s[i], 100.0 * (i + 1) / n


def _layer_metrics(tr) -> dict:
    c, self_s, total, hits = tr.calls, tr.self_s, tr.total_s, tr.hits
    scans = c["seqspace.sup_norm"] + c["seqspace.norm_exceeds"]
    coords = c["seqspace.SeqVector.coords"]
    m = {
        "seqspace.sup_norm.calls": c["seqspace.sup_norm"],
        "seqspace.sup_norm.self_s": self_s["seqspace.sup_norm"],
        "seqspace.norm_exceeds.calls": c["seqspace.norm_exceeds"],
        "seqspace.norm_exceeds.self_s": self_s["seqspace.norm_exceeds"],
        "seqspace.lin_comb.calls": c["seqspace.lin_comb"],
        "seqspace.coords_scanned": tr.coords_scanned,
        "seqspace.coords_calls": coords,
        "seqspace.closure_depth": _ratio(coords, tr.coords_root_calls),
        "seqspace.coords_per_scan": _ratio(tr.coords_scanned, scans),
        "operators.power_apply.calls": c["operators.power_apply"],
        "operators.power_apply.self_s": self_s["operators.power_apply"],
        "operators.DiagonalOperator.apply.calls": c["operators.DiagonalOperator.apply"],
        "operators.matrix_norm.calls": c["operators.matrix_norm"],
        "operators.matrix_norm.self_s": self_s["operators.matrix_norm"],
        "operators.power_bound_estimate.self_s": self_s["operators.power_bound_estimate"],
        "operators.read_matrix_file.self_s": self_s["operators.read_matrix_file"],
        "orbits.separated.calls": c["orbits.OrbitCloud.separated"],
        "orbits.separated.self_s": self_s["orbits.OrbitCloud.separated"],
        "orbits.separated.hit_ratio": _ratio(hits["orbits.OrbitCloud.separated"],
                                             c["orbits.OrbitCloud.separated"]),
        "orbits.distance.calls": c["orbits.OrbitCloud.distance"],
        "orbits.distance.hit_ratio": _ratio(hits["orbits.OrbitCloud.distance"],
                                            c["orbits.OrbitCloud.distance"]),
        "orbits.cloud_diagnostic.self_s": self_s["orbits.cloud_diagnostic"],
        "orbits.orbit.self_s": self_s["orbits.orbit"],
        "ergodic.cesaro.calls": c["ergodic.cesaro"],
        "ergodic.diagonal_mean_ergodic_verdict.total_s":
            total["ergodic.diagonal_mean_ergodic_verdict"],
        "ergodic.mean_ergodic_projection.calls": c["ergodic.mean_ergodic_projection"],
        "ergodic.mean_ergodic_projection.self_s": self_s["ergodic.mean_ergodic_projection"],
        "ergodic.certify_power_bounded.self_s": self_s["ergodic.certify_power_bounded"],
        "ergodic.decomposition_check.self_s": self_s["ergodic.decomposition_check"],
        "jdlg.jdlg_split.calls": c["jdlg.jdlg_split"],
        "jdlg.jdlg_split.self_s": self_s["jdlg.jdlg_split"],
        "jdlg.ktz_check.self_s": self_s["jdlg.ktz_check"],
        "jdlg.half_sum.self_s": self_s["jdlg.half_sum"],
        "jdlg.diagonal_jdlg.self_s": self_s["jdlg.diagonal_jdlg"],
        "gallery.c0_witness.calls": c["gallery.c0_witness"],
        "gallery.c0_witness.self_s": self_s["gallery.c0_witness"],
        "gallery.c0_witness.total_s": total["gallery.c0_witness"],
        "gallery.c0_witness.norm_scans": tr.witness_scans,
        "gallery.write_certificate.self_s": self_s["gallery.write_certificate"],
        "gallery.verify_certificate.total_s": total["gallery.verify_certificate"],
        "cli.main.self_s": self_s["cli.main"],
        "cli.write_json_atomic.self_s": self_s["cli.write_json_atomic"],
        "cli.write_csv_atomic.self_s": self_s["cli.write_csv_atomic"],
        "cli.bytes_written": tr.bytes_written,
    }
    prefix = "seqspace.self_s.under."
    by_caller = tr.seq_self_by_caller
    for name in LAYER_UNITS:
        if name.startswith(prefix):
            m[name] = by_caller.get(name[len(prefix):], 0.0)
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _entries_ratio(reports) -> float:
    """Ladder entries achieved / requested over the witness reports."""
    achieved = requested = 0
    for rep in reports:
        if rep.json_name is None:
            continue
        path = os.path.join(rep.out_dir, rep.json_name)
        with open(path) as fh:
            res = json.load(fh)["results"]
        if "audit" in res:
            achieved += res["audit"]["achieved_count"]
            requested += res["audit"]["requested_count"]
    return _ratio(achieved, requested)


def _separation_problems(workload: str, m: dict, layers) -> list[str]:
    """Checks that the traced workload loads the layers it claims to."""
    from workloads import EXPECTED_LAYERS
    problems = [f"layer {layer} recorded no spans" for layer in EXPECTED_LAYERS[workload]
                if not layers[layer]]
    if workload == "matrix-lab" and m["seqspace.coords_scanned"]:
        problems.append("matrix-lab scanned sequence coordinates")
    if workload != "matrix-lab" and m["operators.matrix_norm.calls"]:
        problems.append(f"{workload} computed matrix norms")
    if (workload == "witness-ladder") != bool(m["gallery.c0_witness.calls"]):
        problems.append("gallery.c0_witness spans outside witness-ladder, or none on it")
    return problems


def _machine() -> dict:
    import numpy
    import scipy
    with open("/proc/self/status") as fh:
        threads = next((ln.split()[1] for ln in fh if ln.startswith("Threads:")), "?")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": int(BLAS_THREADS), "process_threads": int(threads),
            "machine": platform.machine()}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS, check_report, generate
    if args.workload == "all":
        return _run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.setup_probe:
        _setup_probe(args.workload, args.seed, args.setup_probe)
        return 0

    cli = _load_program()
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    reports = generate(args.workload, args.seed, work)
    own_setup = time.perf_counter() - _T0
    try:
        setup = SetupTimer(args.workload, args.seed, work)
        setup.probe()
        runner = Runner(cli, reports, check_report)
        warm_wall, _ = runner.run_pass()
        setup.probe()
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "reports_per_pass": len(reports), "own_setup_s": own_setup,
                  "warmup_pass_s": warm_wall}
        if args.trace:
            metrics, problems = _traced(args, runner, setup, detail)
        else:
            metrics, problems = _timed(args, runner, setup, detail)
        detail["setup_runs_s"] = setup.times
        detail["report_sha256"] = {f"{r.rid}:{r.label}": runner.digests.get(r.rid)
                                   for r in reports}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = runner.failures + problems
    detail.update(machine=_machine(), attempted=runner.attempted,
                  failed=len(runner.failures), problems=problems, metrics=metrics)
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)

    for p in problems:
        print(f"FAILED {p}")
    units = E2E_UNITS if not args.trace else LAYER_UNITS
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    if not args.trace:
        print(f"{args.workload} failed_frac = "
              f"{len(runner.failures) / runner.attempted:.6g} "
              f"({len(runner.failures)} of {runner.attempted} reports)")
        print(f"{args.workload} report_tail_s is p{detail['tail_percentile']:.1f} "
              f"of {detail['timed_reports']} reports")
        print(f"{args.workload} raw completed/elapsed = {detail['raw_reports_per_s']:.6g} 1/s, "
              f"raw median = {detail['raw_report_p50_s']:.6g} s "
              f"({detail['timed_passes']} passes)")
    result = {"correct": not problems, "attempted": runner.attempted,
              "failed": len(runner.failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


def _run_all(args, workloads) -> int:
    """Run every workload in its own fresh process, one after another."""
    status = 0
    for wl in workloads:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", wl,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def _timed(args, runner, setup, detail):
    """Whole passes until ``args.seconds`` of them have elapsed; set-up
    probes run between passes, outside the timed intervals."""
    walls = []
    elapsed = 0.0
    while elapsed < args.seconds:
        pass_wall, pass_walls = runner.run_pass()
        elapsed += pass_wall
        walls += pass_walls
        setup.probe()
    k = len(runner.reports)
    # every pass runs the same reports on the same inputs, so a report's
    # samples differ only by interference from the host, which only adds time
    best = [min(walls[i::k]) for i in range(k)]
    tail, pct = _tail(walls)
    detail.update(timed_passes=len(walls) // k, timed_reports=len(walls),
                  timed_s=elapsed, tail_percentile=pct, report_walls_s=walls,
                  raw_reports_per_s=len(walls) / elapsed,
                  raw_report_p50_s=statistics.median(walls))
    metrics = {
        "setup_s": statistics.median(setup.finish()),
        "reports_per_s": k / sum(best),
        "report_p50_s": statistics.median(best),
        "report_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    problems = []
    if len(walls) <= TAIL_BEYOND:
        problems.append(f"only {len(walls)} timed reports; the tail needs more")
    return metrics, problems


def _traced(args, runner, setup, detail):
    from tracer import Tracer
    untraced_wall = sum(runner.run_pass()[1])
    setup.finish()
    tracer = Tracer()
    tracer.install()
    passes = []
    try:
        for i in range(2):
            tracer.reset()
            wall = 0.0
            for rep in runner.reports:
                tracer.report_id = i * len(runner.reports) + rep.rid
                wall += runner.run_one(rep)
            m = _layer_metrics(tracer)
            m["gallery.witness.entries_ratio"] = _entries_ratio(runner.reports)
            passes.append((wall, m, tracer.layer_spans()))
    finally:
        bindings = tracer.bindings()
        tracer.uninstall()
    os.makedirs(RESULTS, exist_ok=True)
    spans = tracer.write_spans(
        os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-spans.npz"))
    (w1, m1, layers), (w2, m2, _) = passes
    problems = [f"work count {k} differs between traced passes: {m1[k]} vs {m2[k]}"
                for k in DETERMINISTIC if m1[k] != m2[k]]
    problems += _separation_problems(args.workload, m1, layers)
    metrics = {k: (m1[k] + m2[k]) / 2 if LAYER_UNITS[k] == "s" else m1[k]
               for k in m1}
    metrics["trace.overhead_s"] = (w1 + w2) / 2 - untraced_wall
    detail.update(untraced_pass_s=untraced_wall, traced_pass_s=[w1, w2], spans=spans,
                  wrapped_bindings=bindings, layer_spans=layers,
                  seqspace_self_s_by_caller=dict(tracer.seq_self_by_caller))
    return {k: metrics[k] for k in LAYER_UNITS}, problems


if __name__ == "__main__":
    sys.exit(main())
