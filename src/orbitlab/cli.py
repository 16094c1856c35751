"""Deterministic command-line front end.

Subcommands:
  demo               run a bundled scenario end-to-end and write its report
  run                execute a run described by an INI config file
  verify-certificate re-run the ladder test on a witness certificate

Reports are JSON with sorted keys; two runs with the same config and
seed are byte-identical.  Wall-clock timings go to a separate sidecar
file so they never perturb the main report.  Exit codes: 0 success,
1 assertion failure, 2 usage/config error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import gallery, jdlg
from .ergodic import diagonal_mean_ergodic_verdict, decomposition_check
from .errors import ConfigError, HorizonExhaustedError, OrbitLabError
from .gallery import (c0_witness, limit_one_operator,
                      one_minus_symbol_vector, operator_from_spec, probe_for,
                      probe_from_spec, root_limit_operator)
from .jdlg import half_sum, jdlg_split, ktz_check, spectrum_report
from .operators import DiagonalOperator, MatrixOperator, difference
from .orbits import (CHECK_HORIZONS, compactness_diagnostic,
                     difference_compactness_diagnostic, orbit_check)
from .seqspace import constant_one, sup_norm

SCHEMA_VERSION = 2
EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_IO = 3


# ---------------------------------------------------------------------------
# Atomic writers

def _write_text_atomic(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".orbitlab-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, doc: dict) -> None:
    _write_text_atomic(path, json.dumps(doc, indent=2, sort_keys=True,
                                        allow_nan=False) + "\n")


def write_csv_atomic(path: str, rows) -> None:
    lines = [",".join(str(c) for c in row) for row in rows]
    _write_text_atomic(path, "\n".join(lines) + "\n")


def _io_error(exc: OSError) -> int:
    """Report an unwritable output on one line and return EXIT_IO."""
    print(f"error: cannot write output: {exc}", file=sys.stderr)
    return EXIT_IO


_PLAIN = (str, int, float, bool, type(None))


def report_value(value):
    """A report value as JSON data: a dataclass as the dict of its fields
    that have a repr, dict keys as str, tuples, lists and arrays as lists,
    a complex number as ``[re, im]`` and a numpy scalar as its Python value.
    Every printed report value passes through here once."""
    if type(value) in _PLAIN:
        return value
    if isinstance(value, dict):
        return {str(k): report_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [report_value(v) for v in value]
    if isinstance(value, np.ndarray):
        return report_value(value.tolist()) if value.dtype.kind == "c" else value.tolist()
    if isinstance(value, np.generic):
        return report_value(value.item())
    if isinstance(value, complex):
        return [value.real, value.imag]
    if dataclasses.is_dataclass(value):
        return {f.name: report_value(getattr(value, f.name))
                for f in dataclasses.fields(value) if f.repr}
    raise TypeError(f"no report value for {type(value).__name__}")


def _assertion(name: str, passed: bool, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _emit(kind: str, name: str, seed: int, tol: float | None, config: dict, out_dir: str,
          formats: tuple[str, ...], elapsed: float, results: dict, assertions: list,
          tables: dict) -> int:
    """Write the report, its CSV tables and the timing sidecar, print one
    line per assertion and return the exit code.  A run report prints its
    one tolerance; a demo, whose tolerances are fixed, prints none."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "name": name,
        "seed": seed,
        "config": config,
        "results": report_value(results),
        "assertions": assertions,
        "tables": sorted(f"{name}.{t}.csv" for t in tables),
    }
    if tol is not None:
        report["tol"] = tol
    os.makedirs(out_dir, exist_ok=True)
    if "json" in formats:
        write_json_atomic(os.path.join(out_dir, f"{name}.json"), report)
    if "csv" in formats:
        for tname, rows in tables.items():
            write_csv_atomic(os.path.join(out_dir, f"{name}.{tname}.csv"), rows)
    write_json_atomic(os.path.join(out_dir, f"{name}.timing.json"),
                      {"wall_seconds": elapsed})
    for a in assertions:
        status = "ok" if a["passed"] else "FAIL"
        print(f"[{status}] {name}.{a['name']} {a['detail']}".rstrip())
    return EXIT_OK if all(a["passed"] for a in assertions) else EXIT_ASSERTION


# ---------------------------------------------------------------------------
# Demos

def _demo_limit_one(seed: int, out_dir: str):
    op = limit_one_operator()
    one = constant_one("c")
    grow = orbit_check(op, one, 1.0, 1e-8)
    probe = difference(one, op.apply(one))
    sat = orbit_check(op, probe, 1.0, 1e-8)
    verdict = diagonal_mean_ergodic_verdict(op)
    assertions = [
        _assertion("orbit_of_one_grows", grow.verdict == "growing", grow.verdict),
        _assertion("orbit_packing_equals_horizon",
                   bool(np.array_equal(grow.packing[0], CHECK_HORIZONS)),
                   str(grow.packing[0].tolist())),
        _assertion("c0_probe_saturates", sat.verdict == "saturating", sat.verdict),
        _assertion("not_mean_ergodic_on_c", not verdict.is_mean_ergodic,
                   verdict.reason),
    ]
    results = {"orbit_diagnostic": grow, "c0_probe_diagnostic": sat,
               "mean_ergodic_verdict": verdict}
    tables = {"orbit": grow.csv_rows(), "c0_probe": sat.csv_rows()}
    return results, assertions, tables


def _demo_root_limit(seed: int, out_dir: str):
    op = root_limit_operator(2)
    one = constant_one("c")
    y_sq = difference(one, op.power(2).apply(one))
    ns, _ = sup_norm(y_sq, 1e-9)
    sat = orbit_check(op, y_sq, 1.25 * ns, 1e-8)
    y = one_minus_symbol_vector(op)
    grow = orbit_check(op, y, 1.0, 1e-8)
    assertions = [
        _assertion("difference_square_probe_saturates", sat.verdict == "saturating",
                   sat.verdict),
        _assertion("one_minus_symbol_grows", grow.verdict == "growing", grow.verdict),
        _assertion("one_minus_symbol_limit_coordinate",
                   abs(y.limit - 2.0) < 1e-12, repr(y.limit)),
    ]
    results = {"square_difference_diagnostic": sat, "one_minus_symbol_diagnostic": grow,
               "one_minus_symbol_limit": y.limit}
    tables = {"square_difference": sat.csv_rows(), "one_minus_symbol": grow.csv_rows()}
    return results, assertions, tables


def _demo_witness(seed: int, out_dir: str):
    operator_spec = {"kind": "harmonic", "rate": 1.0, "space": "c"}
    probe_spec = {"kind": "one"}
    op = operator_from_spec(operator_spec)
    try:
        audit = c0_witness(op, probe_from_spec(probe_spec), 20, 10_000, tol=1e-6)
    except HorizonExhaustedError as exc:
        audit = exc.audit
    cert_path = os.path.join(out_dir, "witness.certificate.json")
    gallery.write_certificate(cert_path, audit, operator_spec, probe_spec)
    assertions = [
        _assertion("ladder_norms_at_least_delta_over_m", audit.norms_ok,
                   str(list(audit.ladder_norms))),
        _assertion("subset_sums_within_proof_bound", audit.subset_bound_ok,
                   f"bound {audit.subset_bound}"),
        _assertion("separation_delta_is_two", abs(audit.delta - 2.0) <= 1e-9,
                   f"delta {audit.delta}"),
        _assertion("semigroup_bound_is_two", abs(audit.bound_m - 2.0) <= 1e-12,
                   f"M {audit.bound_m}"),
        _assertion("certificate_written", os.path.exists(cert_path), cert_path),
    ]
    results = {"audit": audit, "certificate_path": os.path.basename(cert_path)}
    return results, assertions, {}


def _demo_ktz(seed: int, out_dir: str):
    op = MatrixOperator(np.diag([1.0, 0.9]).astype(np.complex128), "euclidean")
    horizon = 200
    rep = ktz_check(op, horizon=horizon, tol=1e-9)
    ns = np.arange(1, horizon + 1)
    expected = 0.1 * 0.9 ** ns
    max_dev = float(np.max(np.abs(rep.decay_curve - expected)))
    p = rep.limit_projection.entries
    proj_dev = float(np.max(np.abs(p - np.diag([1.0, 0.0]))))
    assertions = [
        _assertion("decay_curve_matches_closed_form", max_dev <= 1e-12, f"{max_dev:.3e}"),
        _assertion("limit_projection_is_diag_1_0", proj_dev <= 1e-9, f"{proj_dev:.3e}"),
        _assertion("ktz_passed", rep.passed, f"limit defect {rep.limit_defect:.3e}"),
    ]
    results = {
        "decay_final": float(rep.decay_curve[-1]),
        "limit_defect": rep.limit_defect,
        "passed": rep.passed,
    }
    rows = [("n", "decay", "expected")]
    rows += [(int(n), float(d), float(e)) for n, d, e in zip(ns, rep.decay_curve, expected)]
    return results, assertions, {"decay": rows}


def _demo_halfsum(seed: int, out_dir: str):
    rng = np.random.default_rng(seed)
    checked = 0
    worst_interior = 0.0
    eig_rows = [("matrix", "re", "im", "abs")]
    for i in range(10):
        g = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        t = MatrixOperator(g / np.linalg.norm(g, 2), "euclidean")
        res = half_sum(t, tol=1e-9)  # raises on an eigenvalue outside the contract
        for lam in res.spectrum.eigenvalues:
            checked += 1
            if abs(lam - 1) > 1e-9:
                worst_interior = max(worst_interior, abs(lam))
            eig_rows.append((i, lam.real, lam.imag, abs(lam)))
    res_id = half_sum(MatrixOperator(np.eye(3, dtype=np.complex128), "euclidean"))
    res_neg = half_sum(MatrixOperator(-np.eye(3, dtype=np.complex128), "euclidean"))
    assertions = [
        _assertion("all_halfsum_eigenvalues_in_contract", True,
                   f"{checked} eigenvalues, worst interior |lambda| {worst_interior:.6f}"),
        _assertion("identity_maps_to_identity",
                   all(abs(l - 1) < 1e-12 for l in res_id.spectrum.eigenvalues), ""),
        _assertion("negation_maps_to_zero",
                   all(abs(l) < 1e-12 for l in res_neg.spectrum.eigenvalues), ""),
    ]
    results = {"eigenvalues_checked": checked, "worst_interior_modulus": worst_interior}
    return results, assertions, {"eigenvalues": eig_rows}


_DEMOS = {"example33": _demo_limit_one, "example43": _demo_root_limit,
          "witness": _demo_witness, "ktz": _demo_ktz, "halfsum": _demo_halfsum}
DEMO_NAMES = tuple(_DEMOS)


def cmd_demo(name: str, seed: int, out_dir: str,
             formats: tuple[str, ...] = ("json", "csv")) -> int:
    if name not in _DEMOS:
        print(f"error: unknown demo {name!r}; choose from {', '.join(DEMO_NAMES)}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        os.makedirs(out_dir, exist_ok=True)
        t0 = time.perf_counter()
        results, assertions, tables = _DEMOS[name](seed, out_dir)
        return _emit("demo", name, seed, None, {"demo": name, "seed": seed},
                     out_dir, formats, time.perf_counter() - t0, results, assertions, tables)
    except OSError as exc:  # the demos read no file: an unwritable output
        return _io_error(exc)


# ---------------------------------------------------------------------------
# Config-driven runs

def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _positive(value: float, what: str) -> float:
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{what} must be finite and positive, got {value!r}")
    return value


def _parse_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _parse_complex_pair(tok: str) -> list[float]:
    re_s, sep, im_s = tok.partition(",")
    if not sep:
        raise ConfigError(f"complex entries are 're,im' pairs, got {tok!r}")
    return [float(re_s), float(im_s)]


def _probe_spec(sec: dict) -> dict:
    """An INI [probe] section in the spec form of certificates: its
    ``re,im`` tokens become [re, im] pairs."""
    spec = dict(sec)
    if "values" in spec:
        spec["values"] = [_parse_complex_pair(tok) for tok in spec["values"].split()]
    if "limit" in spec:
        spec["limit"] = _parse_complex_pair(spec["limit"])
    return spec


def load_config(path: str) -> dict:
    cp = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        cp.read_file(fh)
    cfg: dict = {section: dict(cp[section]) for section in cp.sections()}
    if "operator" not in cfg or "diagnostic" not in cfg:
        raise ConfigError("config needs [operator] and [diagnostic] sections")
    run = cfg.setdefault("run", {})
    run.setdefault("seed", "2026")
    run.setdefault("tol", "1e-8")
    run.setdefault("name", os.path.splitext(os.path.basename(path))[0])
    try:
        int(run["seed"])
        _positive(float(run["tol"]), "run.tol")
    except ValueError as exc:
        raise ConfigError("run.seed must be an int and run.tol a finite positive float") from exc
    if "ktz_tol" in cfg["diagnostic"]:
        raise ConfigError("[diagnostic] ktz_tol is not read: ktz runs at [run] tol (or run --tol)")
    return cfg


# diagnostics that exist in one operator world only
_WORLD = {"ktz": "matrix", "spectrum": "matrix", "witness": "diagonal"}


def _run_diagnostic(cfg: dict, op, probe, tol: float):
    sec = cfg["diagnostic"]
    which = sec.get("op")
    world = "matrix" if isinstance(op, MatrixOperator) else "diagonal"
    if _WORLD.get(which, world) != world:
        raise ConfigError(f"diagnostic op {which!r} needs a {_WORLD[which]} operator, "
                          f"not a {world} one")
    results: dict = {}
    assertions: list = []
    tables: dict = {}
    if which in ("compactness", "difference-compactness"):
        epsilons = [_positive(e, "epsilons") for e in _parse_floats(sec.get("epsilons", "1.0"))]
        if not epsilons:
            raise ConfigError("epsilons must list at least one value")
        horizons = _parse_ints(sec.get("horizons", "100 200 400"))
        fn = compactness_diagnostic if which == "compactness" \
            else difference_compactness_diagnostic
        rep = fn(op, probe, epsilons, horizons, tol=tol)
        results["diagnostic"] = rep
        tables["diagnostic"] = rep.csv_rows()
        mono_h = bool(np.all(np.diff(rep.packing, axis=1) >= 0))
        mono_e = bool(np.all(np.diff(rep.packing, axis=0) <= 0)) \
            if len(epsilons) > 1 and epsilons == sorted(epsilons) else True
        assertions.append(_assertion("packing_monotone_in_horizon", mono_h, ""))
        assertions.append(_assertion("packing_monotone_in_epsilon", mono_e, ""))
    elif which == "mean-ergodic":
        if isinstance(op, DiagonalOperator):
            results["verdict"] = diagonal_mean_ergodic_verdict(op)
        else:
            parts = decomposition_check(op, probe, tol)
            dec = parts.decomposition
            results["projection_residual"] = dec.residual
            results["cesaro_constant"] = dec.cesaro_constant
            results["decomposition_residual"] = parts.residual
            assertions.append(_assertion("projection_residual_small",
                                         dec.residual <= tol * 10, f"{dec.residual:.3e}"))
    elif which == "jdlg":
        if isinstance(op, DiagonalOperator):
            results["diagonal_jdlg"] = jdlg.diagonal_jdlg(op)
        else:
            split = jdlg_split(op, tol)
            results["jdlg"] = {
                "rev_dim": len(split.rev_basis),
                "aws_dim": len(split.aws_basis),
                "aws_spectral_radius": split.aws_spectral_radius,
                "rev_power_bound": split.rev_power_bound,
                "residual": split.residual,
            }
            assertions.append(_assertion("split_residual_small",
                                         split.residual <= tol * 10,
                                         f"{split.residual:.3e}"))
    elif which == "ktz":
        horizon = int(sec.get("horizon", 200))
        rep = ktz_check(op, horizon=horizon, tol=tol)
        results["ktz"] = {"passed": rep.passed, "limit_defect": rep.limit_defect,
                          "decay_final": float(rep.decay_curve[-1])}
        rows = [("n", "decay")]
        rows += [(n + 1, float(d)) for n, d in enumerate(rep.decay_curve)]
        tables["decay"] = rows
        assertions.append(_assertion("ktz_passed", rep.passed, ""))
    elif which == "halfsum":
        res = half_sum(op, tol=tol)
        results["spectrum"] = res.spectrum
        ok = all(jdlg.peripheral_in_one(l, tol) for l in res.spectrum.eigenvalues)
        assertions.append(_assertion("halfsum_peripheral_in_one", ok, ""))
    elif which == "spectrum":
        results["spectrum"] = spectrum_report(op)
    elif which == "witness":
        count = int(sec.get("count", 20))
        horizon = int(sec.get("horizon", 10_000))
        try:
            audit = c0_witness(op, probe, count, horizon, tol=tol)
        except HorizonExhaustedError as exc:
            audit = exc.audit
        results["audit"] = audit
        assertions.append(_assertion("ladder_norms_ok", audit.norms_ok, ""))
        assertions.append(_assertion("subset_sums_ok", audit.subset_bound_ok, ""))
    else:
        raise ConfigError(f"unknown diagnostic op {which!r}")
    return results, assertions, tables


def cmd_run(config_path: str, out_dir: str | None, seed_override: int | None,
            tol_override: float | None,
            formats: tuple[str, ...] = ("json", "csv")) -> int:
    try:
        cfg = load_config(config_path)
    except FileNotFoundError:
        print(f"error: config file not found: {config_path}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, configparser.Error, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    run = cfg["run"]
    seed = seed_override if seed_override is not None else int(run["seed"])
    tol = tol_override if tol_override is not None else float(run["tol"])
    name = run["name"]
    out = out_dir or run.get("out", "out")
    base_dir = os.path.dirname(os.path.abspath(config_path))
    t0 = time.perf_counter()
    try:
        op = operator_from_spec(cfg["operator"], base_dir)
        probe = probe_for(probe_from_spec(_probe_spec(cfg.get("probe", {})), op), op)
        results, assertions, tables = _run_diagnostic(cfg, op, probe, tol)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # an unreadable matrix file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OrbitLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    try:
        return _emit("run", name, seed, tol, {s: dict(v) for s, v in cfg.items()}, out,
                     formats, time.perf_counter() - t0, results, assertions, tables)
    except OSError as exc:
        return _io_error(exc)


def cmd_verify_certificate(path: str, out_dir: str | None) -> int:
    try:
        report = report_value(gallery.verify_certificate(path))
    except OSError as exc:
        print(f"error: cannot read certificate: {exc}", file=sys.stderr)
        return EXIT_IO
    except OrbitLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if out_dir:
        try:
            write_json_atomic(os.path.join(out_dir, "certificate.verify.json"), report)
        except OSError as exc:
            return _io_error(exc)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="orbitlab",
                                description="orbit compactness laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("demo", help="run a bundled scenario")
    d.add_argument("name", help=f"one of: {', '.join(DEMO_NAMES)}")
    d.add_argument("--seed", type=int, default=2026)
    d.add_argument("--out-dir", default="out")
    d.add_argument("--json", action="store_true", help="write only the JSON report")
    d.add_argument("--csv", action="store_true", help="write only the CSV tables")

    r = sub.add_parser("run", help="execute an INI config")
    r.add_argument("--config", required=True)
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--tol", type=float, default=None)
    r.add_argument("--out-dir", default=None)
    r.add_argument("--json", action="store_true", help="write only the JSON report")
    r.add_argument("--csv", action="store_true", help="write only the CSV tables")

    v = sub.add_parser("verify-certificate", help="re-verify a witness certificate")
    v.add_argument("path")
    v.add_argument("--out-dir", default=None)
    return p


def _formats(args) -> tuple[str, ...]:
    if args.json and not args.csv:
        return ("json",)
    if args.csv and not args.json:
        return ("csv",)
    return ("json", "csv")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use (not at import) and then reused."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "demo":
        return cmd_demo(args.name, args.seed, args.out_dir, _formats(args))
    if args.command == "run":
        if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
            print("error: --tol must be finite and positive", file=sys.stderr)
            return EXIT_USAGE
        return cmd_run(args.config, args.out_dir, args.seed, args.tol, _formats(args))
    return cmd_verify_certificate(args.path, args.out_dir)


if __name__ == "__main__":
    sys.exit(main())
