"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Three criteria contain quantitative clauses that are mathematically
unattainable at the stated scales; the blocking analysis is summarised
in each xfail reason.  Those tests implement the criterion verbatim and
are marked strict-xfail: they fail today for provable reasons, and
pytest will flag loudly if they ever start passing.  Each is paired
with a companion test demonstrating the mathematical content at a scale
where it is actually true.
"""

import json
import time

import numpy as np
import pytest

from conftest import commuting_matrix_family, random_power_bounded, random_contraction
from orbitlab.cli import main as cli_main
from orbitlab.ergodic import (cesaro, decomposition_check,
                              diagonal_mean_ergodic_verdict,
                              mean_ergodic_projection)
from orbitlab.errors import HorizonExhaustedError, NotPowerBoundedError
from orbitlab.gallery import (SymbolFamily, bp_test, c0_witness,
                              limit_one_operator, one_minus_symbol_vector,
                              root_limit_operator, verify_certificate,
                              write_certificate)
from orbitlab.jdlg import half_sum, jdlg_split, ktz_check
from orbitlab.operators import (MatrixOperator, OperatorWord, matrix_norm,
                                power_apply, power_bound_estimate,
                                power_difference_rows, telescope_expand,
                                word_matrix)
from orbitlab.orbits import cloud_diagnostic, difference_orbit, orbit
from orbitlab.seqspace import FiniteVector, constant_one, lin_comb, sup_norm

BATTERY_SEED = 20260809


def _report(num, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num}: {status} {detail}".rstrip())


def test_criterion_01_telescoping_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(BATTERY_SEED)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 4))
        gens = commuting_matrix_family(rng, dim=8, m=m)
        ks = tuple(int(rng.integers(0, 6)) for _ in range(m))
        if sum(ks) == 0:
            ks = tuple(min(i + 1, 5) for i in range(m))
        eye = np.eye(8, dtype=np.complex128)
        full = word_matrix(OperatorWord(ks), gens)
        expansion = np.zeros_like(eye)
        for word, j in telescope_expand(ks):
            expansion += word_matrix(word, gens) @ (eye - gens[j - 1].entries)
        for _ in range(20):
            x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            worst = max(worst, float(np.linalg.norm((eye - full) @ x - expansion @ x)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9
    _report(1, ok, f"worst residual {worst:.2e}, {elapsed:.1f}s")
    assert ok


@pytest.mark.xfail(strict=True, reason=(
    "unattainable as stated: within horizon 400 every pair of difference-orbit "
    "points of "
    "the harmonic family is at certified distance >= 0.60, so the packing at "
    "eps = 0.1 equals the horizon (100/200/400) and cannot be constant; "
    "saturation at eps = 0.1 would require horizons beyond ~2000"))
def test_criterion_02_separation_verbatim():
    op = limit_one_operator(SymbolFamily("harmonic"))
    one = constant_one("c")
    horizons = [100, 200, 400]
    cloud = orbit(op, one, 400, tol=1e-8)
    rep = cloud_diagnostic(cloud, [1.0], horizons)
    orbit_ok = rep.packing[0].tolist() == horizons
    # all pairwise distances are 2.0, certified within 1e-8 (translation
    # invariance: d = |n - m| enumerates every pair)
    dist_ok = True
    for d in range(1, 400):
        val, err = cloud.distance(1, 1 + d)
        if abs(val - 2.0) > 1e-8 or err > 1e-8:
            dist_ok = False
            break
    diff_cloud = difference_orbit(op, one, 400, tol=1e-8)
    drep = cloud_diagnostic(diff_cloud, [0.1], horizons)
    diff_constant = drep.packing[0][-1] == drep.packing[0][-2]
    _report(2, orbit_ok and dist_ok and diff_constant,
            f"orbit packing {rep.packing[0].tolist()}, "
            f"diff packing at 0.1 {drep.packing[0].tolist()}")
    assert orbit_ok and dist_ok
    assert diff_constant, "difference-orbit packing at eps=0.1 grows at these horizons"


def test_criterion_02_companion_saturation_at_calibrated_eps():
    # the attainable form of the same statement: the difference orbit is
    # relatively compact and its packing saturates (at 48) once eps sits
    # above the desk-scale filling resolution
    op = limit_one_operator(SymbolFamily("harmonic"))
    one = constant_one("c")
    horizons = [100, 200, 400]
    cloud = orbit(op, one, 400, tol=1e-8)
    rep = cloud_diagnostic(cloud, [1.0], horizons)
    drep = cloud_diagnostic(difference_orbit(op, one, 400, tol=1e-8), [1.0], horizons)
    ok = (rep.packing[0].tolist() == horizons
          and drep.verdict == "saturating"
          and drep.packing[0].tolist() == [48, 48, 48])
    _report("2-companion", ok,
            f"diff packing at eps=1: {drep.packing[0].tolist()}")
    assert ok


ONSET_HORIZONS = [500, 1000, 2000, 4000, 8000]


def test_criterion_02_companion_no_onset_to_8000():
    # the reason above places saturation at eps = 0.1 "beyond ~2000"; the
    # measured packing still equals the horizon at 8000
    op = limit_one_operator(SymbolFamily("harmonic"))
    cloud = difference_orbit(op, constant_one("c"), ONSET_HORIZONS[-1], tol=1e-8)
    drep = cloud_diagnostic(cloud, [0.1], ONSET_HORIZONS)
    ok = drep.packing[0].tolist() == ONSET_HORIZONS
    _report("2-onset", ok, f"diff packing at eps=0.1: {drep.packing[0].tolist()}")
    assert ok


def test_criterion_03_mean_ergodicity_dichotomy():
    t0 = time.perf_counter()
    op_c = limit_one_operator(SymbolFamily("harmonic"))
    verdict = diagonal_mean_ergodic_verdict(op_c, sample_ns=(10, 100, 1000))
    not_me = not verdict.is_mean_ergodic
    curve = verdict.evidence["cesaro_sup_curve"]
    sups_ok = all(abs(curve[n] - 1.0) <= 1e-8 for n in (10, 100, 1000))

    from orbitlab.operators import DiagonalOperator, harmonic_symbol
    from orbitlab.seqspace import basis_vector
    op_c0 = DiagonalOperator(harmonic_symbol(), "c0")
    # sample away from n = 0 mod 4, where the probe's Dirichlet kernel
    # (symbol value i) vanishes exactly and a log fit degenerates
    sample_ns = (11, 101, 1001)
    v0 = diagonal_mean_ergodic_verdict(op_c0, sample_ns=sample_ns,
                                       probe=basis_vector(2, "c0"))
    pcurve = v0.evidence["cesaro_probe_curve"]
    c_env = 2.0 / abs(1 - np.exp(1j * np.pi / 2))
    envelope_ok = all(pcurve[n] <= c_env / n + 1e-9 for n in sample_ns)
    ns = np.array(sorted(pcurve))
    vals = np.array([pcurve[n] for n in ns])
    slope = np.polyfit(np.log(ns), np.log(np.maximum(vals, 1e-300)), 1)[0]
    fit_ok = v0.is_mean_ergodic and envelope_ok and -1.3 <= slope <= -0.7
    elapsed = time.perf_counter() - t0
    ok = not_me and sups_ok and fit_ok
    _report(3, ok, f"sup curve {curve}, c0 fit exponent {slope:.2f}, {elapsed:.1f}s")
    assert ok


def test_criterion_04_matrix_mean_ergodic_battery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(BATTERY_SEED + 4)
    for _ in range(100):
        op, _, _ = random_power_bounded(rng, dim=10)
        dec = mean_ergodic_projection(op, 1e-8)
        assert dec.residual <= 1e-8, "projection identities above tolerance"
        p = dec.projection.entries
        eye = np.eye(10, dtype=complex)
        m_est = power_bound_estimate(op, 100).sup_estimate
        y = np.linalg.solve(eye - op.entries + p, eye - p)
        oblique = matrix_norm(y, "euclidean")
        acc = np.zeros_like(p)
        cur = eye.copy()
        k = 0
        for n in (32, 128):
            while k < n:
                acc += cur
                cur = op.entries @ cur
                k += 1
            diff = matrix_norm(acc / n - p, "euclidean")
            assert diff <= 2 * m_est / n * oblique + 1e-12
        x = FiniteVector(rng.standard_normal(10) + 1j * rng.standard_normal(10))
        parts = decomposition_check(op, x, tol=1e-8)
        assert parts.residual <= 1e-8
    elapsed = time.perf_counter() - t0
    _report(4, True, f"100 matrices, {elapsed:.1f}s")


def test_criterion_05_jdlg_battery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(BATTERY_SEED + 5)
    fit_errs = []
    for _ in range(100):
        op, _, _ = random_power_bounded(rng, dim=10)
        sp = jdlg_split(op, 1e-8, group_horizon=1000)
        rho = sp.aws_spectral_radius
        assert rho < 1.0
        # decay-rate fit on a random stable-part vector; the window stops
        # before rho^n reaches the rounding floor, where re-injected
        # peripheral noise flattens the curve
        q = np.eye(10, dtype=complex) - sp.projection.entries
        x = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        y = q @ x
        n_hi = int(min(200, np.log(1e-10) / np.log(max(rho, 1e-6))))
        ns = np.arange(5, max(n_hi, 20) + 1)
        cur = y.copy()
        norms = np.empty(ns.size)
        k = 0
        for i, n in enumerate(ns):
            while k < n:
                cur = op.entries @ cur
                k += 1
            norms[i] = np.linalg.norm(cur)
        slope = np.polyfit(ns, np.log(np.maximum(norms, 1e-290)), 1)[0]
        r_fit = float(np.exp(slope))
        fit_errs.append(abs(r_fit - rho))
        assert abs(r_fit - rho) <= 0.05, f"fitted rate {r_fit:.3f} vs rho {rho:.3f}"
        # compact-group surrogate: both power directions bounded to 1000
        if sp.rev_action is not None:
            vv = np.linalg.eig(sp.rev_action.entries)[1]
            kappa = np.linalg.cond(vv)
            assert sp.rev_power_bound <= 2 * kappa + 1
    elapsed = time.perf_counter() - t0
    _report(5, True, f"max fit error {max(fit_errs):.4f}, {elapsed:.1f}s")


def test_criterion_06_ktz():
    t0 = time.perf_counter()
    op = MatrixOperator(np.diag([1.0, 0.9]).astype(complex), "euclidean")
    rep = ktz_check(op, horizon=200, tol=1e-9)
    ns = np.arange(1, 201)
    dev = float(np.max(np.abs(rep.decay_curve - 0.1 * 0.9 ** ns)))
    curve_ok = dev <= 1e-12
    proj_ok = np.allclose(rep.limit_projection.entries, np.diag([1.0, 0.0]), atol=1e-12)
    limit_ok = rep.limit_defect <= 1e-8 and rep.passed
    jordan = MatrixOperator(np.array([[1, 1], [0, 1]], dtype=complex))
    with pytest.raises(NotPowerBoundedError):
        ktz_check(jordan, horizon=50)
    elapsed = time.perf_counter() - t0
    ok = curve_ok and proj_ok and limit_ok
    _report(6, ok, f"curve deviation {dev:.2e}, limit defect {rep.limit_defect:.2e}, "
                   f"{elapsed:.1f}s")
    assert ok


def test_criterion_07_half_sum_battery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(BATTERY_SEED + 7)
    checked = 0
    for _ in range(100):
        t = random_contraction(rng, dim=10)
        res = half_sum(t, tol=1e-9)
        for lam in res.spectrum.eigenvalues:
            assert abs(lam) < 1 - 1e-12 or abs(lam - 1) <= 1e-9
            checked += 1
    elapsed = time.perf_counter() - t0
    _report(7, True, f"{checked} eigenvalues, {elapsed:.1f}s")


@pytest.mark.xfail(strict=True, reason=(
    "unattainable as stated: pairwise distances of the orbit of (I - T^2) 1 "
    "stay above "
    "1.18 out to horizon 400, so packing at eps = 0.1 equals the horizon and "
    "cannot be constant over the last doubling; saturation happens at "
    "eps = 2.5 (at 24) or at horizons beyond ~5000"))
def test_criterion_08_root_asymmetry_verbatim():
    op = root_limit_operator(SymbolFamily("root_perturbed", m=2))
    one = constant_one("c")
    horizons = [100, 200, 400]
    y_sq = lin_comb([1.0, -1.0], [one, op.power(2).apply(one)])
    rep_sq = cloud_diagnostic(orbit(op, y_sq, 400, tol=1e-8), [0.1], horizons)
    sq_constant = rep_sq.packing[0][-1] == rep_sq.packing[0][-2]
    y = one_minus_symbol_vector(op)
    rep_y = cloud_diagnostic(orbit(op, y, 400, tol=1e-8), [1.0], horizons)
    grows = rep_y.packing[0].tolist() == horizons
    limit_ok = abs(y.limit - 2.0) < 1e-12
    _report(8, sq_constant and grows and limit_ok,
            f"square-diff packing at 0.1 {rep_sq.packing[0].tolist()}, "
            f"orbit of 1-(a_k) {rep_y.packing[0].tolist()}")
    assert grows and limit_ok
    assert sq_constant, "square-difference packing at eps=0.1 grows at these horizons"


def test_criterion_08_companion_asymmetry_at_calibrated_eps():
    op = root_limit_operator(SymbolFamily("root_perturbed", m=2))
    one = constant_one("c")
    horizons = [100, 200, 400]
    y_sq = lin_comb([1.0, -1.0], [one, op.power(2).apply(one)])
    rep_sq = cloud_diagnostic(orbit(op, y_sq, 400, tol=1e-8), [2.5], horizons)
    y = one_minus_symbol_vector(op)
    rep_y = cloud_diagnostic(orbit(op, y, 400, tol=1e-8), [1.0], horizons)
    ok = (rep_sq.verdict == "saturating"
          and rep_sq.packing[0].tolist() == [24, 24, 24]
          and rep_y.verdict == "growing"
          and abs(y.limit - 2.0) < 1e-12)
    _report("8-companion", ok,
            f"square-diff packing at eps=2.5 {rep_sq.packing[0].tolist()}, "
            f"orbit of 1-(a_k) verdict {rep_y.verdict}")
    assert ok


def test_criterion_08_companion_no_onset_to_8000():
    # the reason above places saturation at eps = 0.1 "beyond ~5000"; the
    # measured packing still equals the horizon at 8000
    op = root_limit_operator(SymbolFamily("root_perturbed", m=2))
    one = constant_one("c")
    y_sq = lin_comb([1.0, -1.0], [one, op.power(2).apply(one)])
    rep_sq = cloud_diagnostic(orbit(op, y_sq, ONSET_HORIZONS[-1], tol=1e-8), [0.1],
                              ONSET_HORIZONS)
    ok = rep_sq.packing[0].tolist() == ONSET_HORIZONS
    _report("8-onset", ok, f"square-diff packing at eps=0.1: {rep_sq.packing[0].tolist()}")
    assert ok


@pytest.mark.xfail(strict=True, reason=(
    "unattainable as stated: the second smallness threshold 1/(2^2 M) = 1/8 is "
    "unreachable within exponent horizon 10^4 (the best pair over all "
    "admissible differences achieves 0.392), so the inductive selection "
    "honestly exhausts after one ladder entry instead of reaching count 20"))
def test_criterion_09_witness_verbatim(tmp_path):
    op = limit_one_operator(SymbolFamily("harmonic"))
    one = constant_one("c")
    try:
        audit = c0_witness(op, one, 20, 10_000, tol=1e-6, subset_samples=200)
    except HorizonExhaustedError as exc:
        audit = exc.audit
        _report(9, False,
                f"achieved {audit.achieved_count}/20 before exhaustion "
                f"(delta {audit.delta}, M {audit.bound_m}, "
                f"norms {list(audit.ladder_norms)})")
        raise AssertionError("selection exhausted the horizon before count 20")
    norms_ok = all(v >= 1.0 - 1e-6 for v in audit.ladder_norms)
    sums_ok = all(s["value"] <= 5.0 + 1e-6 for s in audit.subset_sums)
    cert = tmp_path / "cert.json"
    write_certificate(cert, audit, {"kind": "harmonic", "rate": 1.0, "space": "c"},
                      {"kind": "one"})
    rep = verify_certificate(cert)
    ok = norms_ok and sums_ok and rep.get("ladder_detected", False)
    _report(9, ok, f"{audit.achieved_count} entries")
    assert ok


def test_criterion_09_companion_honest_partial_ladder(tmp_path):
    # what the construction can certify at desk scale: the first entry with
    # delta = 2, M = 2, norm 2 in [delta/M, 2 M ||x||], partial sums within
    # the bound, and a re-verifiable certificate
    op = limit_one_operator(SymbolFamily("harmonic"))
    one = constant_one("c")
    with pytest.raises(HorizonExhaustedError) as info:
        c0_witness(op, one, 20, 10_000, tol=1e-6, subset_samples=200)
    audit = info.value.audit
    ok = (audit.achieved_count == 1 and audit.exhausted
          and abs(audit.delta - 2.0) <= 1e-9
          and audit.bound_m == 2.0
          and audit.norms_ok and audit.subset_bound_ok
          and all(v >= 1.0 - 1e-6 for v in audit.ladder_norms))
    cert = tmp_path / "cert.json"
    write_certificate(cert, audit, {"kind": "harmonic", "rate": 1.0, "space": "c"},
                      {"kind": "one"})
    rep = verify_certificate(cert)
    ok = ok and rep["prefix_ok"]
    # the ladder statistics themselves are exercised on a synthetic ladder
    from orbitlab.seqspace import basis_vector
    bp = bp_test([basis_vector(k) for k in range(1, 21)], subset_samples=200)
    ok = ok and bp.ladder_detected
    _report("9-companion", ok,
            f"achieved {audit.achieved_count}, delta {audit.delta}, "
            f"norms {list(audit.ladder_norms)}")
    assert ok


def test_criterion_09_companion_best_pair_0392():
    # the reason above quotes the best pair at 0.392: after the first entry
    # (2, 1) the only logged product is P = (T^2 - T) 1, and every candidate
    # (1 + d, 1) with 2 <= d < 10^4 is rejected at threshold 1/8.  The first
    # 64 coordinates bound each ||(T^{1+d} - T) P|| from below; the smallest
    # bound is attained, and certified exactly, at d = 5040.
    op = limit_one_operator(SymbolFamily("harmonic"))
    one = constant_one("c")
    p = lin_comb([1.0, -1.0], [power_apply(op, 2, one), power_apply(op, 1, one)])
    ds = np.arange(2, 10_000)
    lower = np.abs(power_difference_rows(op, 1 + ds, 1, p, np.arange(1, 65))).max(axis=1)
    best = int(ds[lower.argmin()])
    val, err = sup_norm(lin_comb([1.0, -1.0], [power_apply(op, 1 + best, p),
                                              power_apply(op, 1, p)]), 1e-8)
    ok = (best == 5040 and err == 0.0 and val == lower.min()
          and round(val, 3) == 0.392 and val > 1.0 / 8)
    _report("9-best-pair", ok, f"best pair ({1 + best}, 1) at {val:.10f} > 1/8")
    assert ok


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["demo", "ktz", "--seed", "11", "--out-dir", str(out1)]) == 0
    assert cli_main(["demo", "ktz", "--seed", "11", "--out-dir", str(out2)]) == 0
    same_json = (out1 / "ktz.json").read_bytes() == (out2 / "ktz.json").read_bytes()
    same_csv = (out1 / "ktz.decay.csv").read_bytes() == (out2 / "ktz.decay.csv").read_bytes()
    assert cli_main(["demo", "halfsum", "--seed", "11", "--out-dir", str(out1)]) == 0
    assert cli_main(["demo", "halfsum", "--seed", "11", "--out-dir", str(out2)]) == 0
    same_hs = (out1 / "halfsum.json").read_bytes() == (out2 / "halfsum.json").read_bytes()
    elapsed = time.perf_counter() - t0
    ok = same_json and same_csv and same_hs
    _report(10, ok, f"{elapsed:.1f}s")
    assert ok
