import numpy as np
import pytest

from conftest import random_power_bounded
from orbitlab import ergodic, jdlg
from orbitlab.ergodic import (cesaro, certify_power_bounded,
                              decomposition_check,
                              diagonal_mean_ergodic_verdict, mean_ergodic_projection,
                              spectrum_report)
from orbitlab.errors import NotPowerBoundedError, UnsupportedSymbolError
from orbitlab.jdlg import ktz_check
from orbitlab.operators import (DiagonalOperator, MatrixOperator, constant_symbol,
                                harmonic_symbol, root_perturbed_symbol)
from orbitlab.seqspace import FiniteVector, constant_one, sup_norm


def harmonic_op(space="c"):
    return DiagonalOperator(harmonic_symbol(), space)


class TestCesaro:
    def test_fixed_point(self):
        op = DiagonalOperator(constant_symbol(0.0), "c")
        one = constant_one()
        for n in (1, 7, 30):
            out = cesaro(op, one, n)
            assert sup_norm(
                out, 1e-9).value == pytest.approx(1.0, abs=1e-12)
            assert out.limit == 1

    def test_two_step_cancellation(self):
        op = MatrixOperator(np.array([[-1.0 + 0j]]))
        out = cesaro(op, FiniteVector(np.array([1.0 + 0j])), 2)
        assert abs(out.coords[0]) < 1e-15

    def test_harmonic_sup_is_one(self):
        # every coordinate of A_n 1 has modulus < 1 but the limit
        # coordinate equals 1 exactly, so the sup-norm is exactly 1
        op = harmonic_op()
        one = constant_one()
        for n in (10, 100, 1000):
            an = cesaro(op, one, n)
            assert an.limit == 1
            val, err = sup_norm(an, 1e-3)
            assert abs(val - 1.0) <= 1e-8

    def test_telescoping_identity_on_matrices(self, rng):
        # A_n (I - T) x == (x - T^n x) / n exactly
        for _ in range(10):
            op, _, _ = random_power_bounded(rng, dim=7)
            x = rng.standard_normal(7) + 1j * rng.standard_normal(7)
            n = int(rng.integers(2, 60))
            y = FiniteVector(x - op.entries @ x)
            lhs = cesaro(op, y, n).coords
            rhs = (x - np.linalg.matrix_power(op.entries, n) @ x) / n
            assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestCertification:
    def test_spectral_radius_guard(self):
        with pytest.raises(NotPowerBoundedError):
            certify_power_bounded(MatrixOperator(np.array([[2.0 + 0j]])))

    def test_defective_peripheral_guard(self):
        jordan = MatrixOperator(np.array([[1, 1], [0, 1]], dtype=complex))
        with pytest.raises(NotPowerBoundedError):
            certify_power_bounded(jordan)

    def test_defective_interior_accepted(self):
        jordan_inside = MatrixOperator(np.array([[0.5, 1], [0, 0.5]], dtype=complex))
        cert = certify_power_bounded(jordan_inside)
        assert cert.spectral_radius == pytest.approx(0.5)
        assert len(cert.peripheral) == 0


class TestProjection:
    def test_three_eigenvalues(self):
        op = MatrixOperator(np.diag([1.0, 0.5, 1j]))
        dec = mean_ergodic_projection(op, 1e-10)
        assert np.allclose(dec.projection.entries, np.diag([1.0, 0.0, 0.0]), atol=1e-12)
        assert dec.residual <= 1e-12

    def test_identity(self):
        op = MatrixOperator(np.eye(4, dtype=complex))
        dec = mean_ergodic_projection(op)
        assert np.allclose(dec.projection.entries, np.eye(4), atol=1e-14)

    def test_no_fixed_vectors(self):
        op = MatrixOperator(np.diag([-1.0, -1.0]).astype(complex))
        dec = mean_ergodic_projection(op)
        assert np.allclose(dec.projection.entries, 0.0, atol=1e-14)

    def test_cesaro_rate_fit(self, rng):
        # ||A_n - P|| decays like C / n: fitted exponent within [0.8, 1.2]
        op, _, _ = random_power_bounded(rng, dim=8)
        dec = mean_ergodic_projection(op)
        p = dec.projection.entries
        ns = 2 ** np.arange(4, 13)
        norms = []
        a = op.entries
        acc = np.zeros_like(a)
        cur = np.eye(8, dtype=complex)
        k = 0
        for n in ns:
            while k < n:
                acc = acc + cur
                cur = a @ cur
                k += 1
            norms.append(np.linalg.norm(acc / n - p, 2))
        slope = np.polyfit(np.log(ns), np.log(norms), 1)[0]
        assert -1.2 <= slope <= -0.8


class TestFixSeparation:
    def test_jordan_at_one_rejected(self):
        jordan = MatrixOperator(np.array([[1, 1], [0, 1]], dtype=complex))
        for split in (mean_ergodic_projection, jdlg.jdlg_split):
            with pytest.raises(NotPowerBoundedError):
                split(jordan)


class TestDiagonalVerdict:
    def test_harmonic_on_c_not_mean_ergodic(self):
        v = diagonal_mean_ergodic_verdict(harmonic_op())
        assert not v.is_mean_ergodic
        assert v.reason == "limit-functional-obstruction"
        # literal obstruction: the limit coordinate of A_n 1 stays 1
        assert v.evidence["limit_coordinate"] == 1.0
        for val in v.evidence["cesaro_sup_curve"].values():
            assert abs(val - 1.0) <= 1e-8

    def test_constant_minus_one_mean_ergodic(self):
        op = DiagonalOperator(constant_symbol(np.pi), "c")
        v = diagonal_mean_ergodic_verdict(op)
        assert v.is_mean_ergodic
        assert v.evidence["symbol_gap"] == pytest.approx(2.0)
        # || A_n 1 || <= 1/n from the closed form
        n, val = next(iter(v.evidence["cesaro_cross_check"].items()))
        assert val <= 1.0 / n + 1e-9

    def test_harmonic_on_c0_mean_ergodic(self):
        v = diagonal_mean_ergodic_verdict(harmonic_op("c0"))
        assert v.is_mean_ergodic and v.reason == "cesaro-converged"
        curve = v.evidence["cesaro_probe_curve"]
        ns = sorted(curve)
        # C/n decay on the probe
        assert curve[ns[-1]] <= 2.0 / ns[-1] / abs(1 - np.exp(1j * np.pi / 2)) + 1e-6

    def test_root_symbol_on_c_mean_ergodic(self):
        v = diagonal_mean_ergodic_verdict(DiagonalOperator(root_perturbed_symbol(2), "c"))
        assert v.is_mean_ergodic
        # gap excludes the single exactly-fixed coordinate a_1 = 1
        assert v.evidence["symbol_gap"] == pytest.approx(np.sqrt(2.0), abs=1e-9)

    def test_custom_symbol_refused(self):
        # a power of a catalogued symbol has no closed-form verdict here
        with pytest.raises(UnsupportedSymbolError, match="powers"):
            diagonal_mean_ergodic_verdict(DiagonalOperator(harmonic_symbol().power(2), "c"))


class TestDecompositionCheck:
    def test_fixed_vector_has_no_range_part(self):
        op = MatrixOperator(np.diag([1.0, 0.5]).astype(complex))
        parts = decomposition_check(op, FiniteVector(np.array([1.0, 0.0 + 0j])))
        assert np.allclose(parts.range_part.coords, 0.0, atol=1e-12)

    def test_mixed_vector_splits(self):
        op = MatrixOperator(np.diag([1.0, 0.5]).astype(complex))
        parts = decomposition_check(op, FiniteVector(np.array([1.0, 1.0 + 0j])))
        assert np.allclose(parts.fix_part.coords, [1.0, 0.0], atol=1e-12)
        assert np.allclose(parts.range_part.coords, [0.0, 1.0], atol=1e-12)
        assert parts.residual <= 1e-10

    def test_zero_vector(self):
        op = MatrixOperator(np.diag([1.0, 0.5]).astype(complex))
        parts = decomposition_check(op, FiniteVector(np.array([0.0, 0.0 + 0j])))
        assert parts.fix_part.norm() == 0.0 and parts.range_part.norm() == 0.0


def test_battery_verdicts_and_decompositions(rng):
    for _ in range(10):
        op, _, _ = random_power_bounded(rng, dim=8)
        mean_ergodic_projection(op)  # certified mean ergodic, or it raises
        x = FiniteVector(rng.standard_normal(8) + 1j * rng.standard_normal(8))
        parts = decomposition_check(op, x, tol=1e-7)
        recon = parts.fix_part.coords + parts.range_part.coords
        assert np.max(np.abs(recon - x.coords)) <= 1e-12


class TestOneSpectrumRecord:
    """``certify_power_bounded`` returns the record ``spectrum_report`` makes."""

    def test_certificate_is_the_spectrum_report(self):
        op = MatrixOperator(np.diag([1.0, 1j, -1.0, 0.5 + 0.25j]))
        cert, rep = certify_power_bounded(op), spectrum_report(op)
        assert cert == rep
        assert cert.spectral_radius == 1.0
        assert cert.peripheral == (-1.0 + 0j, 1j, 1.0 + 0j)

    def test_jdlg_reads_the_same_report(self):
        assert jdlg.spectrum_report is ergodic.spectrum_report
        assert jdlg.SpectrumReport is ergodic.SpectrumReport

    def test_criterion_06_jordan_block_still_refused(self):
        jordan = MatrixOperator(np.array([[1, 1], [0, 1]], dtype=complex))
        with pytest.raises(NotPowerBoundedError, match="defective"):
            certify_power_bounded(jordan)
        with pytest.raises(NotPowerBoundedError):
            ktz_check(jordan, horizon=50)
