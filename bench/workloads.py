"""Seeded input generator and report lists for the orbitlab benchmark.

Each workload is a fixed list of report *slots*.  The seed draws every
parameter of a slot (rates, root orders, probes, epsilons, horizons,
matrices) inside a band chosen for that slot, so two seeds give different
inputs with the same composition of report kinds.  That keeps the mix, and
with it the median and tail of report latency, comparable across seeds.

Everything here is stdlib + numpy: the benchmark must not import test code,
and the generated files are plain INI configs, matrix files and witness
certificates that the program reads through its public entry point.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("diag-lab", "witness-ladder", "matrix-lab")

# Layers that must record spans on each workload in a traced run.
EXPECTED_LAYERS = {
    "diag-lab": ("seqspace", "operators", "orbits", "ergodic", "jdlg", "cli"),
    "witness-ladder": ("seqspace", "operators", "orbits", "jdlg", "gallery", "cli"),
    "matrix-lab": ("seqspace", "operators", "orbits", "ergodic", "jdlg", "cli"),
}

_PREFIX_CHECK_LEN = 32  # length of the coordinate prefixes a certificate stores


@dataclass
class Report:
    """One report: the argv for ``orbitlab.cli.main`` plus what to check.

    ``expect`` holds oracle values the generator knows in closed form
    (see ``check_report``); ``json_name`` is the main report file.
    """

    rid: int
    label: str
    argv: list
    out_dir: str
    json_name: str | None
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Matrix generators

def _conditioned_basis(rng, dim: int, max_cond: float = 20.0) -> np.ndarray:
    while True:
        v = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        if np.linalg.cond(v) <= max_cond:
            return v


def power_bounded_matrix(rng, dim: int = 10, max_uni: int = 3):
    """Power-bounded matrix with a semisimple unimodular part.

    One to ``max_uni`` unimodular eigenvalues, the first equal to 1 and the
    phases at least 0.3 apart; the rest inside the disk with moduli in
    [0.3, 0.9]; conjugated by a basis of condition number <= 20.
    Returns the matrix and its eigenvalues.
    """
    n_uni = int(rng.integers(1, max_uni + 1))
    phases = [0.0]
    while len(phases) < n_uni:
        cand = rng.uniform(-np.pi, np.pi)
        if all(abs(cand - p) > 0.3 for p in phases):
            phases.append(cand)
    interior = rng.uniform(0.3, 0.9, dim - n_uni) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, dim - n_uni))
    eigs = np.concatenate([np.exp(1j * np.array(phases)), interior])
    v = _conditioned_basis(rng, dim)
    return v @ np.diag(eigs) @ np.linalg.inv(v), eigs


def peripheral_one_matrix(rng, dim: int = 10):
    """Matrix whose peripheral spectrum is {1}: a semisimple eigenvalue 1
    (multiplicity 1 or 2) and interior moduli in [0.2, 0.7], so the
    Katznelson-Tzafriri decay reaches 1e-9 well inside 200 powers."""
    n_one = int(rng.integers(1, 3))
    interior = rng.uniform(0.2, 0.7, dim - n_one) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, dim - n_one))
    eigs = np.concatenate([np.ones(n_one), interior])
    v = _conditioned_basis(rng, dim)
    return v @ np.diag(eigs) @ np.linalg.inv(v), eigs


def contraction_matrix(rng, dim: int = 10):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g / np.linalg.norm(g, 2)


def write_matrix(path: str, a: np.ndarray) -> None:
    """Plain-text matrix file: header N, then N rows of ``re,im`` pairs."""
    lines = [str(a.shape[0])]
    for row in a:
        lines.append(" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Config and certificate writers

def _ini(sections: dict) -> str:
    out = []
    for name, body in sections.items():
        out.append(f"[{name}]")
        out.extend(f"{k} = {v}" for k, v in body.items())
        out.append("")
    return "\n".join(out)


def _pair(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _horizons(top: int) -> str:
    return f"{top // 4} {top // 2} {top}"


def _harmonic_ladder_prefix(rate: float, d: int) -> np.ndarray:
    """First coordinates of ``1 - T^d 1`` for the harmonic symbol."""
    ks = np.arange(1, _PREFIX_CHECK_LEN + 1, dtype=np.float64)
    return 1.0 - np.exp(1j * np.mod(d * (math.pi / ks ** rate), 2.0 * math.pi))


def write_certificate(path: str, rate: float, pairs: list) -> None:
    """Witness certificate for the harmonic operator and the constant-one
    probe.  Ladder entries ``1 - T^(s-t) 1`` are known in closed form, so
    the prefix integrity data is computed here, not by the program."""
    entries = []
    for s, t in pairs:
        pre = _harmonic_ladder_prefix(rate, s - t)
        entries.append({
            "prefix": [[float(z.real), float(z.imag)] for z in pre],
            "limit": [0.0, 0.0],
            "tail": {"constant": math.pi * (s - t), "exponent": rate},
        })
    doc = {
        "format": "c0-ladder-certificate",
        "version": 1,
        "operator": {"kind": "harmonic", "rate": rate, "space": "c"},
        "probe": {"kind": "one"},
        "delta": 2.0,
        "bound_m": 2.0,
        "probe_norm": 1.0,
        "subset_bound": 5.0,
        "pairs": [list(p) for p in pairs],
        "ladder_norms": [],
        "prefix_check": {"length": _PREFIX_CHECK_LEN, "entries": entries},
        "exhausted": False,
        "requested_count": len(pairs),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Workloads

class _Builder:
    def __init__(self, root: str, rng):
        self.root = root
        self.rng = rng
        self.reports: list[Report] = []
        os.makedirs(os.path.join(root, "in"), exist_ok=True)

    def _out(self, rid: int) -> str:
        return os.path.join(self.root, "out", f"r{rid:02d}")

    def demo(self, name: str, expect=None) -> Report:
        rid = len(self.reports)
        out = self._out(rid)
        seed = int(self.rng.integers(1, 1 << 30))
        rep = Report(rid, f"demo-{name}",
                     ["demo", name, "--seed", str(seed), "--out-dir", out],
                     out, f"{name}.json", expect or {})
        self.reports.append(rep)
        return rep

    def run(self, label: str, operator: dict, diagnostic: dict, probe=None,
            expect=None) -> Report:
        rid = len(self.reports)
        name = f"r{rid:02d}-{label}"
        sections = {"run": {"name": name, "seed": int(self.rng.integers(1, 1 << 30)),
                            "tol": "1e-8"},
                    "operator": operator}
        if probe:
            sections["probe"] = probe
        sections["diagnostic"] = diagnostic
        path = os.path.join(self.root, "in", f"{name}.ini")
        with open(path, "w") as fh:
            fh.write(_ini(sections))
        out = self._out(rid)
        rep = Report(rid, label, ["run", "--config", path, "--out-dir", out],
                     out, f"{name}.json", expect or {})
        self.reports.append(rep)
        return rep

    def verify(self, label: str, cert_path: str, expect=None) -> Report:
        rid = len(self.reports)
        out = self._out(rid)
        rep = Report(rid, label, ["verify-certificate", cert_path, "--out-dir", out],
                     out, None, expect or {})
        self.reports.append(rep)
        return rep

    def matrix(self, label: str, a: np.ndarray, norm: str = "euclidean") -> dict:
        path = os.path.join(self.root, "in", f"m{len(self.reports):02d}-{label}.txt")
        write_matrix(path, a)
        return {"kind": "matrix", "path": path, "norm": norm}


def _prefix_probe(rng, length: int, limit: complex) -> dict:
    """Eventually constant probe with entries of modulus <= 1."""
    vals = rng.uniform(0.2, 1.0, length) * np.exp(1j * rng.uniform(-np.pi, np.pi, length))
    return {"kind": "prefix", "values": " ".join(_pair(complex(z)) for z in vals),
            "limit": _pair(limit)}


def _diag_lab(b: _Builder) -> None:
    rng = b.rng
    # heavy reports: the Cesaro scan behind example33's verdict and the
    # O(h^2) greedy net of a 2-separated orbit at h ~ 2000 (every orbit point
    # of 1 is 2-separated, so the packing equals the horizon below eps 2)
    b.demo("example33")
    for _ in range(2):
        b.run("orbit-one", {"kind": "harmonic", "rate": rng.uniform(1.0, 2.0)},
              {"op": "compactness", "epsilons": f"{rng.uniform(0.8, 1.5):.6f}",
               "horizons": _horizons(int(rng.integers(1900, 2101)))},
              {"kind": "one"}, expect={"packing_equals_horizons": True})
    # mid-size nets over two epsilons
    for _ in range(2):
        b.run("orbit-one-2eps", {"kind": "harmonic", "rate": rng.uniform(1.0, 2.0)},
              {"op": "compactness",
               "epsilons": f"{rng.uniform(0.4, 0.6):.6f} {rng.uniform(0.9, 1.1):.6f}",
               "horizons": _horizons(int(rng.integers(750, 851)))},
              {"kind": "one"}, expect={"packing_equals_horizons": True})
        b.run("diff-one-2eps", {"kind": "harmonic", "rate": rng.uniform(1.0, 2.0)},
              {"op": "difference-compactness",
               "epsilons": f"{rng.uniform(0.4, 0.6):.6f} {rng.uniform(0.9, 1.1):.6f}",
               "horizons": _horizons(int(rng.integers(750, 851)))},
              {"kind": "one"})
    for _ in range(2):
        b.run("diff-prefix", {"kind": rng.choice(["harmonic", "root_perturbed"]),
                              "m": int(rng.integers(2, 5)), "rate": rng.uniform(1.0, 2.0)},
              {"op": "difference-compactness", "epsilons": f"{rng.uniform(0.8, 1.2):.6f}",
               "horizons": _horizons(int(rng.integers(790, 811)))},
              _prefix_probe(rng, int(rng.integers(2, 6)), complex(rng.uniform(0.5, 1.0))))
    # the ~0.1 s middle of the mix: splitting cross-checks at fixed horizons
    b.demo("example43")
    for _ in range(2):
        b.run("jdlg-harmonic", {"kind": "harmonic", "rate": rng.uniform(1.0, 2.0)},
              {"op": "jdlg"}, expect={"jdlg_consistent": True})
    for _ in range(4):
        b.run("jdlg-root", {"kind": "root_perturbed", "m": int(rng.integers(2, 7)),
                            "rate": rng.uniform(1.0, 2.0)}, {"op": "jdlg"})
    b.run("orbit-basis-c0", {"kind": "harmonic", "space": "c0",
                             "rate": rng.uniform(1.0, 2.0)},
          {"op": "compactness", "epsilons": f"{rng.uniform(0.3, 0.7):.6f}",
           "horizons": _horizons(int(rng.integers(380, 421)))},
          {"kind": "basis", "index": int(rng.integers(1, 9))})
    # symbolic mean-ergodic verdicts: on c the harmonic family is not mean
    # ergodic (limit functional obstruction); root-perturbed families on c
    # and every family on c0 are.  The Cesaro scan length grows steeply as
    # the rate falls, so the harmonic rate stays in a narrow band.
    for _ in range(2):
        b.run("me-harmonic", {"kind": "harmonic", "rate": rng.uniform(1.45, 1.55)},
              {"op": "mean-ergodic"}, expect={"mean_ergodic": False})
        b.run("me-root", {"kind": "root_perturbed", "m": int(rng.integers(2, 7)),
                          "rate": rng.uniform(1.4, 1.6)},
              {"op": "mean-ergodic"}, expect={"mean_ergodic": True})
        b.run("me-c0", {"kind": rng.choice(["harmonic", "root_perturbed"]), "space": "c0",
                        "m": int(rng.integers(2, 7)), "rate": rng.uniform(1.0, 2.0)},
              {"op": "mean-ergodic"}, {"kind": "basis", "index": int(rng.integers(1, 9))},
              expect={"mean_ergodic": True})


def _witness_ladder(b: _Builder) -> None:
    rng = b.rng
    demo = b.demo("witness", expect={"min_entries": 1})
    b.verify("verify-demo", os.path.join(demo.out_dir, "witness.certificate.json"))
    # config-driven ladders for the demo's operator and probe at seed-drawn
    # horizons and ladder lengths.  The failing pair search scans every
    # exponent difference up to the horizon, so the cost grows with it.
    # (Random prefix probes are left out: for some of them the difference
    # orbit's packing is still "inconclusive" at h = 400, and the witness
    # precondition check then exits 1 by design.)
    for lo, hi, n in ((1000, 1100, 3), (380, 420, 6)):
        for _ in range(n):
            b.run("witness", {"kind": "harmonic", "rate": 1.0},
                  {"op": "witness", "count": int(rng.integers(6, 21)),
                   "horizon": int(rng.integers(lo, hi + 1))},
                  {"kind": "one"}, expect={"min_entries": 1})
    # certificates with several ladder entries exercise the partial-sum test
    for n_pairs in (2, 3, 4):
        rate = float(rng.uniform(1.0, 2.0))
        ds = sorted(rng.choice(np.arange(1, 400), size=n_pairs, replace=False).tolist())
        pairs = [(1 + int(d), 1) for d in ds]
        path = os.path.join(b.root, "in", f"cert{n_pairs}.json")
        write_certificate(path, rate, pairs)
        b.verify(f"verify-cert{n_pairs}", path, expect={"pairs": n_pairs})


def _matrix_lab(b: _Builder) -> None:
    rng = b.rng
    for i in range(7):
        a, _ = power_bounded_matrix(rng)
        op = b.matrix("pb", a, "sup" if i == 3 else "euclidean")
        b.run("mean-ergodic", op, {"op": "mean-ergodic"}, {"kind": "one"})
    # the splitting is the heaviest report and the least input-dependent
    # (its cost is set by the 1000-step group check), so the tail sample
    # falls among its samples; matrix nets cost more or less depending on
    # the drawn matrix, so their horizons stay short enough to keep them
    # below it
    for _ in range(2):
        a, _ = power_bounded_matrix(rng)
        b.run("jdlg", b.matrix("pb", a), {"op": "jdlg"})
    for _ in range(3):
        a, _ = power_bounded_matrix(rng, max_uni=2)
        b.run("compactness", b.matrix("pb", a),
              {"op": "compactness", "epsilons": f"{rng.uniform(0.3, 0.6):.6f}",
               "horizons": _horizons(int(rng.integers(140, 161)))},
              {"kind": "basis", "index": int(rng.integers(1, 11))})
    for _ in range(2):
        a, eigs = power_bounded_matrix(rng)
        b.run("spectrum", b.matrix("pb", a), {"op": "spectrum"},
              expect={"eigenvalues": [[z.real, z.imag] for z in eigs]})
    for _ in range(2):
        a, _ = peripheral_one_matrix(rng)
        b.run("ktz", b.matrix("p1", a), {"op": "ktz", "horizon": 200})
    for _ in range(2):
        b.run("halfsum", b.matrix("contraction", contraction_matrix(rng)),
              {"op": "halfsum"})


_BUILDERS = {"diag-lab": _diag_lab, "witness-ladder": _witness_ladder,
             "matrix-lab": _matrix_lab}


def generate(workload: str, seed: int, root: str) -> list[Report]:
    """Write every input of ``workload`` for ``seed`` under ``root``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    b = _Builder(root, rng)
    _BUILDERS[workload](b)
    return b.reports


# ---------------------------------------------------------------------------
# Correctness oracles

def check_report(rep: Report, stdout: str) -> list[str]:
    """Problems with a finished report (empty when it is correct)."""
    problems = []
    if rep.json_name is None:  # verify-certificate prints its report
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return ["verify-certificate printed no JSON report"]
        if doc.get("prefix_ok") is not True:
            problems.append("certificate prefixes rejected")
        if "pairs" in rep.expect and doc.get("pairs") != rep.expect["pairs"]:
            problems.append(f"certificate has {doc.get('pairs')} pairs")
        return problems
    with open(os.path.join(rep.out_dir, rep.json_name)) as fh:
        doc = json.load(fh)
    problems += [f"assertion {a['name']} failed" for a in doc["assertions"]
                 if not a["passed"]]
    res = doc["results"]
    exp = rep.expect
    if "mean_ergodic" in exp and res["verdict"]["is_mean_ergodic"] != exp["mean_ergodic"]:
        problems.append("wrong mean-ergodicity verdict")
    if "jdlg_consistent" in exp and not res["diagonal_jdlg"]["cross_check"]["consistent"]:
        problems.append("diagonal splitting cross-check inconsistent")
    if exp.get("packing_equals_horizons"):
        diag = res["diagnostic"]
        if any(row != diag["horizons"] for row in diag["packing"]):
            problems.append("packing of a 2-separated orbit differs from the horizon")
    if "min_entries" in exp and res["audit"]["achieved_count"] < exp["min_entries"]:
        problems.append("witness ladder is empty")
    if "eigenvalues" in exp:
        want = [complex(*p) for p in exp["eigenvalues"]]
        got = [complex(*p) for p in res["spectrum"]["eigenvalues"]]
        if len(got) != len(want) or _matched_distance(got, want) > 1e-8:
            problems.append("eigenvalues differ from the generated spectrum")
    return problems


def _matched_distance(got: list, want: list) -> float:
    """Largest distance after greedily matching each wanted eigenvalue."""
    remaining = list(got)
    worst = 0.0
    for w in want:
        j = int(np.argmin([abs(w - g) for g in remaining]))
        worst = max(worst, abs(w - remaining.pop(j)))
    return worst
