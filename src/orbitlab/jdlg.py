"""Reversible/stable splitting, peripheral-spectrum criteria and the
half-sum transform.

The splitting separates a power-bounded matrix into its reversible part
(span of eigenvectors with unimodular eigenvalues, where the semigroup
closure acts as a compact group) and the stable part (complementary
spectral subspace, where powers decay geometrically).  A full group
closure is not finitely checkable; the surrogate certificate is
unimodularity of the reversible eigenvalues plus bounded positive and
negative powers of the restricted action up to a horizon.

Peripheral thresholds are 1e-9 (``ergodic.PERIPHERAL_TOL``), for exact inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PeripheralSpectrumError, UnsupportedSymbolError
from .ergodic import (SpectrumReport, _CesaroStack, _cluster, _mean_ergodic_projection,
                      _spectral_projection, certify_power_bounded, spectrum_report)
from .operators import DiagonalOperator, MatrixOperator, difference, matrix_norm, power_chunks
from .orbits import orbit_check
from .seqspace import FiniteVector, SeqVector, constant_one, lin_comb, sup_norm

__all__ = [
    "SpectrumReport",
    "JdlgSplit",
    "KtzReport",
    "HalfSumResult",
    "AveragedOperator",
    "DiagonalJdlgReport",
    "spectrum_report",
    "jdlg_split",
    "ktz_check",
    "half_sum",
    "peripheral_in_one",
    "diagonal_jdlg",
]

_HALF_SUM_SAMPLES = 512  # indices k whose (1 + a_k) / 2 a diagonal half_sum samples
_CROSS_CHECK_TOL = 1e-8  # the coarsest cloud tolerance of diagonal_jdlg's cross-check


@dataclass(frozen=True)
class JdlgSplit:
    """Projection onto the reversible part plus verification data."""

    projection: MatrixOperator
    rev_basis: tuple[FiniteVector, ...]
    aws_basis: tuple[FiniteVector, ...]
    rev_action: MatrixOperator | None
    aws_spectral_radius: float
    rev_power_bound: float          # sup over |n| <= horizon of ||rev_action^n||
    residual: float


def jdlg_split(op: MatrixOperator, tol: float = 1e-8,
               group_horizon: int = 1000) -> JdlgSplit:
    """Split a certified power-bounded matrix into reversible + stable parts.

    E_rev is the span of eigenvectors with unimodular eigenvalues, E_aws
    the complementary spectral subspace; the projection is the sum of the
    spectral projections of the certified peripheral clusters, built from
    the certification's SVDs.  Records the largest norm of the restricted
    action's powers in both directions up to ``group_horizon``
    (``rev_power_bound``); it does not assert it.
    """
    spec = certify_power_bounded(op, tol)
    eigs = np.array(spec.eigenvalues)
    a = op.entries
    n = op.dim
    p, rev_cols, aws_cols = _spectral_projection(spec.null_bases, n)
    interior = eigs[np.abs(eigs) < 1 - spec.peri_tol]
    rho_aws = float(np.max(np.abs(interior))) if interior.size else 0.0

    residual = float(matrix_norm(np.stack([p @ p - p, a @ p - p @ a]), op.norm_tag).max())
    rev_basis = tuple(FiniteVector(c, op.norm_tag) for c in rev_cols.T)
    aws_basis = tuple(FiniteVector(c, op.norm_tag) for c in aws_cols.T)

    rev_action = None
    rev_power_bound = 0.0
    if rev_basis:
        r = rev_cols.conj().T @ a @ rev_cols
        rev_action = MatrixOperator(r, op.norm_tag)
        eye_r = np.eye(len(rev_basis), dtype=np.complex128)
        worst = 1.0
        for g in (r, np.linalg.inv(r)):
            for chunk in power_chunks(g, g @ eye_r, group_horizon):
                worst = max(worst, matrix_norm(chunk, op.norm_tag).max())
        rev_power_bound = float(worst)
    return JdlgSplit(MatrixOperator(p, op.norm_tag), rev_basis, aws_basis,
                     rev_action, rho_aws, rev_power_bound, residual)


@dataclass(frozen=True)
class KtzReport:
    decay_curve: np.ndarray         # n -> ||T^n (I - T)||, n = 1..horizon
    limit_projection: MatrixOperator
    limit_defect: float             # ||T^horizon - P||
    passed: bool


def ktz_check(op: MatrixOperator, horizon: int = 200, tol: float = 1e-9) -> KtzReport:
    """Decay of ``||T^n (I - T)||`` under peripheral spectrum inside {1}.

    Precondition: certified power-bounded with sigma(T) on the unit
    circle contained in {1}; otherwise PeripheralSpectrumError.  Passes
    when the decay curve is eventually decreasing to <= tol and the
    powers converge to the mean-ergodic projection in norm.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    spec = certify_power_bounded(op, tol)
    bad = [z for z in spec.peripheral if abs(z - 1) > spec.peri_tol * 10 + 1e-12]
    if bad:
        scale = max(1.0, matrix_norm(op.entries, "euclidean"))
        raise PeripheralSpectrumError(
            f"peripheral spectrum not contained in {{1}}: {_cluster(bad, 1e-7 * scale)}")
    a = op.entries
    diff = np.eye(op.dim, dtype=np.complex128) - a
    # T^1 .. T^max(horizon, 255): the decay curve and the projection's Cesaro stack
    stack, curve, done = _CesaroStack(op.dim, op.norm_tag), [], 0
    for chunk in power_chunks(a, a, max(horizon, _CesaroStack.counts[-1] - 1)):
        if done < horizon:
            powers = chunk[:horizon - done]
            curve.append(matrix_norm(powers @ diff, op.norm_tag))
            last = powers[-1]  # T^horizon once the curve is complete
        stack.add(chunk)
        done += len(chunk)
    curve = np.concatenate(curve)
    dec = _mean_ergodic_projection(op, spec, tol, stack)
    limit_defect = matrix_norm(last - dec.projection.entries, op.norm_tag)
    tail = curve[horizon // 2:]
    eventually_decreasing = bool(np.all(np.diff(tail) <= 1e-12 + 1e-9 * tail[:-1]))
    passed = bool(eventually_decreasing and curve[-1] <= tol and limit_defect <= tol)
    return KtzReport(curve, dec.projection, float(limit_defect), passed)


@dataclass(frozen=True)
class AveragedOperator:
    """Half-sum ``(I + T) / 2`` of a diagonal operator, applied pointwise."""

    base: DiagonalOperator

    def apply(self, v: SeqVector) -> SeqVector:
        return lin_comb([0.5, 0.5], [v, self.base.apply(v)])


@dataclass(frozen=True)
class HalfSumResult:
    operator: object                # MatrixOperator or AveragedOperator
    spectrum: SpectrumReport


def peripheral_in_one(z: complex, tol: float) -> bool:
    """``half_sum``'s test of an eigenvalue: ``|z| < 1 - tol`` or within tol of 1."""
    return abs(z) < 1 - tol or abs(z - 1) <= tol


def half_sum(op, tol: float = 1e-9) -> HalfSumResult:
    """Transform ``S = (I + T) / 2`` of a contraction.

    Every eigenvalue of S lies strictly inside the disk unless T fixes
    the corresponding direction, so the peripheral spectrum of S is
    contained in {1}.  Matrices are checked for ||T|| <= 1 + tol; for a
    unimodular diagonal operator the contraction property is automatic
    and the spectrum report samples ``(1 + a_k) / 2`` plus the limit.
    """
    if isinstance(op, MatrixOperator):
        if op.operator_norm() > 1.0 + tol:
            raise ValueError(f"half_sum needs a contraction, got norm {op.operator_norm():g}")
        s = MatrixOperator((np.eye(op.dim, dtype=np.complex128) + op.entries) / 2.0,
                           op.norm_tag)
        rep = spectrum_report(s, peri_tol=tol)
        for lam in rep.eigenvalues:
            if abs(lam) >= 1 + tol:
                raise PeripheralSpectrumError(f"half-sum eigenvalue {lam} outside disk")
            if not peripheral_in_one(lam, tol):
                raise PeripheralSpectrumError(
                    f"half-sum eigenvalue {lam} peripheral but away from 1")
        return HalfSumResult(s, rep)
    if isinstance(op, DiagonalOperator):
        ks = np.arange(1, _HALF_SUM_SAMPLES + 1)
        lam = (1.0 + op.symbol.values(ks)) / 2.0
        lam_limit = (1.0 + op.symbol.limit_value) / 2.0
        eigs = tuple(complex(z) for z in lam) + (complex(lam_limit),)
        peri = tuple(z for z in eigs if abs(z) >= 1 - tol)
        rep = SpectrumReport(eigs, peri, tol, sampled=True)
        for z in peri:
            if not peripheral_in_one(z, tol):
                raise PeripheralSpectrumError(
                    f"half-sum sampled eigenvalue {z} peripheral but away from 1")
        return HalfSumResult(AveragedOperator(op), rep)
    raise TypeError(f"unsupported operator type {type(op).__name__}")


@dataclass(frozen=True)
class DiagonalJdlgReport:
    """Symbolic reversible/stable description of a diagonal operator."""

    aap_space: str                   # "c0" or "whole"
    rev_equals_aap: bool
    p_is_identity_on_aap: bool
    cross_check: dict | None = None


def diagonal_jdlg(op: DiagonalOperator, cross_check: bool = True) -> DiagonalJdlgReport:
    """Symbolic splitting for the catalogued diagonal symbol families.

    For a unimodular symbol converging to a root of unity without
    attaining the limit, the almost periodic subspace coincides with the
    reversible one and equals c0, and the splitting projection acts as
    the identity there.  Constant symbols are plain rotations: the whole
    space is almost periodic.  Powers of a symbol are refused.
    """
    sym = op.symbol
    if sym.exponent != 1:
        raise UnsupportedSymbolError(
            f"the symbolic splitting covers the catalogued symbols, not their powers "
            f"(exponent {sym.exponent})")
    if sym.kind == "constant":
        return DiagonalJdlgReport("whole", True, True)  # a rotation: orbits lie on circles

    m = sym.params[0] if sym.kind == "root_perturbed" else 1
    checks = None
    if cross_check:
        one = constant_one("c")
        grow = orbit_check(op, one, 1.0, _CROSS_CHECK_TOL)
        probe = difference(one, op.power(m).apply(one))
        pn, _ = sup_norm(probe, 1e-9)
        eps = 1.25 * pn
        sat = orbit_check(op, probe, eps, _CROSS_CHECK_TOL)
        checks = {
            "orbit_of_one": grow.verdict,
            "c0_probe": sat.verdict,
            "c0_probe_eps": eps,
            "consistent": grow.verdict == "growing" and sat.verdict == "saturating",
        }
    return DiagonalJdlgReport("c0", True, True, checks)
