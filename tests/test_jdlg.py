import numpy as np
import pytest

from conftest import random_power_bounded  # noqa: F401
from orbitlab import ergodic, jdlg
from orbitlab.cli import report_value
from orbitlab.errors import (NotPowerBoundedError, PeripheralSpectrumError,
                             UnsupportedSymbolError)
from orbitlab.jdlg import diagonal_jdlg, half_sum, jdlg_split, ktz_check, spectrum_report
from orbitlab.operators import (DiagonalOperator, MatrixOperator, constant_symbol,
                                harmonic_symbol, root_perturbed_symbol)
from orbitlab.orbits import compactness_diagnostic
from orbitlab.seqspace import FiniteVector, basis_vector, sup_norm


class TestSplit:
    def test_mixed_spectrum(self):
        op = MatrixOperator(np.diag([1.0, 1j, 0.5]))
        sp = jdlg_split(op, 1e-10)
        assert np.allclose(sp.projection.entries, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
        assert sp.aws_spectral_radius == pytest.approx(0.5)

    def test_identity(self):
        sp = jdlg_split(MatrixOperator(np.eye(3, dtype=complex)))
        assert np.allclose(sp.projection.entries, np.eye(3), atol=1e-14)
        assert len(sp.aws_basis) == 0 and sp.aws_spectral_radius == 0.0

    def test_strict_contraction(self):
        op = MatrixOperator(np.diag([0.4, 0.2 + 0.3j]))
        sp = jdlg_split(op)
        assert np.allclose(sp.projection.entries, 0.0, atol=1e-14)
        assert len(sp.rev_basis) == 0

    def test_defective_peripheral_rejected(self):
        jordan = MatrixOperator(np.array([[1j, 1], [0, 1j]], dtype=complex))
        with pytest.raises(NotPowerBoundedError):
            jdlg_split(jordan)

    def test_battery_decay_and_group_bound(self, rng):
        # || T^n (I - P) v || <= C r^n and rev powers bounded both ways
        for _ in range(6):
            op, eigs, v = random_power_bounded(rng, dim=7)
            sp = jdlg_split(op, 1e-8)
            q = np.eye(7, dtype=complex) - sp.projection.entries
            r_eff = sp.aws_spectral_radius + 1e-8
            x = rng.standard_normal(7) + 1j * rng.standard_normal(7)
            y = q @ x
            cur = y.copy()
            ratios = []
            for n in range(1, 120):
                cur = op.entries @ cur
                ratios.append(np.linalg.norm(cur) / r_eff ** n)
            assert max(ratios) < 1e4  # C stays modest for conditioned bases
            if sp.rev_action is not None:
                evals = np.linalg.eigvals(sp.rev_action.entries)
                assert np.max(np.abs(np.abs(evals) - 1.0)) <= 1e-8
                vv = np.linalg.eig(sp.rev_action.entries)[1]
                kappa = np.linalg.cond(vv)
                assert sp.rev_power_bound <= 2 * kappa + 1


class TestKtz:
    def test_diag_point_nine(self):
        op = MatrixOperator(np.diag([1.0, 0.9]).astype(complex))
        rep = ktz_check(op, horizon=200, tol=1e-9)
        ns = np.arange(1, 201)
        assert np.max(np.abs(rep.decay_curve - 0.1 * 0.9 ** ns)) <= 1e-12
        assert np.allclose(rep.limit_projection.entries, np.diag([1.0, 0.0]), atol=1e-12)
        assert rep.passed

    def test_identity_curve_is_zero(self):
        rep = ktz_check(MatrixOperator(np.eye(2, dtype=complex)), horizon=50, tol=1e-12)
        assert np.all(rep.decay_curve == 0.0) and rep.passed

    def test_interior_jordan_block(self):
        op = MatrixOperator(np.array([[0.5, 1], [0, 0.5]], dtype=complex))
        rep = ktz_check(op, horizon=120, tol=1e-9)
        assert rep.passed
        assert np.allclose(rep.limit_projection.entries, 0.0, atol=1e-12)
        # closed form from the power formula T^n = 0.5^n [[1, 2n], [0, 1]]:
        # T^n (I - T) = 0.5^n [[0.5, n - 1], [0, 0.5]], decay O(n 0.5^n)
        for n in (3, 17, 60):
            block = np.array([[0.5, n - 1.0], [0.0, 0.5]])
            expected = 0.5 ** n * np.linalg.norm(block, 2)
            assert rep.decay_curve[n - 1] == pytest.approx(expected, rel=1e-12)

    def test_peripheral_precondition(self):
        with pytest.raises(PeripheralSpectrumError):
            ktz_check(MatrixOperator(np.diag([1.0, 1j])), horizon=50)
        with pytest.raises(NotPowerBoundedError):
            ktz_check(MatrixOperator(np.array([[1, 1], [0, 1]], dtype=complex)))

    def test_peripheral_message_names_a_repeated_eigenvalue_once(self):
        with pytest.raises(PeripheralSpectrumError) as exc:
            ktz_check(MatrixOperator(np.diag([1.0, -1.0, -1.0]).astype(complex)), horizon=50)
        assert str(exc.value) == "peripheral spectrum not contained in {1}: [(-1+0j)]"

    def test_pass_implies_orbit_saturation(self, rng):
        # consistency: a passing decay certificate comes with precompact
        # orbits, so the packing diagnostic saturates
        op = MatrixOperator(np.diag([1.0, 0.9, 0.5, 0.8j * 0 + 0.3]).astype(complex))
        rep = ktz_check(op, horizon=300, tol=1e-8)
        assert rep.passed
        for _ in range(2):
            x = FiniteVector(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            diag = compactness_diagnostic(op, x, [max(0.5 * x.norm(), 0.2)],
                                          [100, 200, 400], tol=1e-6)
            assert diag.verdict == "saturating"


def test_rev_action_orbits_saturate(rng):
    # compact-group surrogate: orbits of the restricted reversible action
    # have saturating packing clouds
    for _ in range(3):
        op, _, _ = random_power_bounded(rng, dim=6, max_uni=2)
        sp = jdlg_split(op, 1e-8)
        if sp.rev_action is None:
            continue
        d = sp.rev_action.dim
        x = FiniteVector(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        rep = compactness_diagnostic(sp.rev_action, x, [max(0.75 * x.norm(), 0.2)],
                                     [200, 400, 800], tol=1e-6)
        assert rep.verdict == "saturating"


class TestHalfSum:
    def test_negative_identity(self):
        res = half_sum(MatrixOperator(-np.eye(2, dtype=complex)))
        assert np.allclose(res.operator.entries, 0.0)
        assert all(abs(l) < 1e-14 for l in res.spectrum.eigenvalues)

    def test_scalar_rotation(self):
        theta = 1.1
        res = half_sum(MatrixOperator(np.array([[np.exp(1j * theta)]])))
        lam = res.spectrum.eigenvalues[0]
        assert abs(lam - (1 + np.exp(1j * theta)) / 2) < 1e-14
        assert abs(lam) == pytest.approx(abs(np.cos(theta / 2)), abs=1e-12)
        assert abs(lam) < 1.0

    def test_identity(self):
        res = half_sum(MatrixOperator(np.eye(2, dtype=complex)))
        assert all(abs(l - 1) < 1e-14 for l in res.spectrum.eigenvalues)

    def test_norm_guard(self):
        with pytest.raises(ValueError):
            half_sum(MatrixOperator(2 * np.eye(2, dtype=complex)))

    def test_diagonal_operator_sampled_spectrum(self):
        op = DiagonalOperator(harmonic_symbol(), "c")
        res = half_sum(op, tol=1e-9)
        assert res.spectrum.sampled
        # peripheral sampled values concentrate near 1 (small k excluded)
        for lam in res.spectrum.peripheral:
            assert abs(lam - 1) <= 1e-9
        # the averaged operator contracts the first basis vector to zero
        out = res.operator.apply(basis_vector(1))
        assert sup_norm(out, 1e-10).value <= 1e-12

    def test_power_bound_preserved(self, rng):
        # averaging preserves power-boundedness: sup ||S^n|| <= sup ||T^n||
        op, _, _ = random_power_bounded(rng, dim=6)
        a = op.entries / max(1.0, np.linalg.norm(op.entries, 2))
        t = MatrixOperator(a)
        s = half_sum(t).operator
        sup_t, sup_s = 0.0, 0.0
        ct, cs = np.eye(6, dtype=complex), np.eye(6, dtype=complex)
        for _ in range(500):
            ct = t.entries @ ct
            cs = s.entries @ cs
            sup_t = max(sup_t, np.linalg.norm(ct, 2))
            sup_s = max(sup_s, np.linalg.norm(cs, 2))
        assert sup_s <= sup_t + 1e-9


class TestDiagonalJdlg:
    def test_harmonic_family(self):
        rep = diagonal_jdlg(DiagonalOperator(harmonic_symbol(), "c"))
        assert rep.aap_space == "c0"
        assert rep.rev_equals_aap and rep.p_is_identity_on_aap
        assert rep.cross_check["consistent"]

    def test_root_family(self):
        rep = diagonal_jdlg(DiagonalOperator(root_perturbed_symbol(2), "c"))
        assert rep.aap_space == "c0"
        assert rep.cross_check["consistent"]

    def test_constant_family(self):
        rep = diagonal_jdlg(DiagonalOperator(constant_symbol(0.7), "c"))
        assert rep.aap_space == "whole"
        assert rep.p_is_identity_on_aap

    def test_custom_symbol_refused(self):
        # a power of a catalogued symbol has no symbolic splitting here
        with pytest.raises(UnsupportedSymbolError, match="powers"):
            diagonal_jdlg(DiagonalOperator(harmonic_symbol().power(2), "c"))


def test_spectrum_report_shape():
    rep = spectrum_report(MatrixOperator(np.diag([1.0, 0.5, -1j])))
    assert len(rep.eigenvalues) == 3
    assert len(rep.peripheral) == 2
    doc = report_value(rep)
    assert len(doc["eigenvalues"]) == 3


def _count_certifications(monkeypatch):
    """Record the tol of every spectral certification."""
    made = []
    real = ergodic.certify_power_bounded

    def certify(op, tol=1e-8):
        made.append(tol)
        return real(op, tol)

    monkeypatch.setattr(ergodic, "certify_power_bounded", certify)
    monkeypatch.setattr(jdlg, "certify_power_bounded", certify)
    return made


_KTZ_OP = MatrixOperator(np.diag([1.0, 0.9]).astype(np.complex128))  # the ktz demo's matrix


class TestOneCertification:
    """A matrix certified once is not certified again by the projection."""

    def test_ktz_check_certifies_once(self, monkeypatch):
        want = ktz_check(_KTZ_OP, horizon=200, tol=1e-9)
        made = _count_certifications(monkeypatch)
        got = ktz_check(_KTZ_OP, horizon=200, tol=1e-9)
        assert made == [1e-9]
        assert np.array_equal(got.decay_curve, want.decay_curve)
        assert np.array_equal(got.limit_projection.entries, want.limit_projection.entries)
        assert (got.limit_defect, got.passed) == (want.limit_defect, want.passed)

    def test_mean_ergodic_projection_certifies_once(self, monkeypatch):
        op = MatrixOperator(np.diag([1.0, 1j, 0.5]))
        want = ergodic.mean_ergodic_projection(op)
        made = _count_certifications(monkeypatch)
        got = ergodic.mean_ergodic_projection(op)
        assert made == [1e-8]
        assert np.array_equal(got.projection.entries, want.projection.entries)

    def test_split_reads_eigenvalues_from_its_certificate(self, monkeypatch):
        op = MatrixOperator(np.diag([1.0, 1j, 0.5, 0.25]))
        want = jdlg_split(op, 1e-10)
        calls = []
        real = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(1) or real(a))
        got = jdlg_split(op, 1e-10)
        assert len(calls) == 1
        assert got.aws_spectral_radius == want.aws_spectral_radius == 0.5
        assert np.array_equal(got.projection.entries, want.projection.entries)
