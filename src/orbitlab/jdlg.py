"""Reversible/stable splitting, peripheral-spectrum criteria and the
half-sum transform.

The splitting separates a power-bounded matrix into its reversible part
(span of eigenvectors with unimodular eigenvalues, where the semigroup
closure acts as a compact group) and the stable part (complementary
spectral subspace, where powers decay geometrically).  A full group
closure is not finitely checkable; the surrogate certificate is
unimodularity of the reversible eigenvalues plus bounded positive and
negative powers of the restricted action up to a horizon.

Peripheral thresholds default to 1e-9 for exact inputs; pass a larger
``peri_tol`` for user data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import PeripheralSpectrumError, UnsupportedSymbolError
from .ergodic import (PERIPHERAL_TOL, _sorted_schur_projection,
                      certify_power_bounded, mean_ergodic_projection)
from .operators import DiagonalOperator, MatrixOperator, matrix_norm, power_chunks
from .orbits import cloud_diagnostic, compactness_diagnostic, orbit
from .seqspace import (FiniteVector, SeqVector, constant_one, lin_comb, stacked_norms,
                       sup_norm)

__all__ = [
    "SpectrumReport",
    "JdlgSplit",
    "KtzReport",
    "CountablePeripheralReport",
    "HalfSumResult",
    "AveragedOperator",
    "DiagonalJdlgReport",
    "spectrum_report",
    "jdlg_split",
    "ktz_check",
    "countable_peripheral_check",
    "half_sum",
    "diagonal_jdlg",
]

_HALF_SUM_SAMPLES = 512  # indices k whose (1 + a_k) / 2 a diagonal half_sum samples


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues with their peripheral sublist (|lambda| >= 1 - tol)."""

    eigenvalues: tuple[complex, ...]
    peripheral: tuple[complex, ...]
    semisimple_flags: tuple[bool, ...] | None
    peri_tol: float
    sampled: bool = False

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
            "peripheral": [[z.real, z.imag] for z in self.peripheral],
            "peri_tol": self.peri_tol,
            "sampled": self.sampled,
        }


def spectrum_report(op: MatrixOperator, peri_tol: float = PERIPHERAL_TOL) -> SpectrumReport:
    eigs = np.linalg.eigvals(op.entries)
    order = np.lexsort((eigs.imag, eigs.real))
    eigs = eigs[order]
    peri = tuple(complex(z) for z in eigs[np.abs(eigs) >= 1 - peri_tol])
    return SpectrumReport(tuple(complex(z) for z in eigs), peri, None, peri_tol)


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
    diagnostics: dict = field(default_factory=dict)


def jdlg_split(op: MatrixOperator, tol: float = 1e-8,
               peri_tol: float = PERIPHERAL_TOL,
               group_horizon: int = 1000) -> JdlgSplit:
    """Split a certified power-bounded matrix into reversible + stable parts.

    E_rev is the span of eigenvectors with unimodular eigenvalues, E_aws
    the complementary spectral subspace.  Records the largest norm of the
    restricted action's powers in both directions up to ``group_horizon``
    (``rev_power_bound``) and, in ``diagnostics["aws_decay_constants"]``,
    the largest ``||T^k y|| / (rho_aws + tol)**k`` over k <= 200 for up to
    three stable basis vectors y.  It asserts neither bound.
    """
    eigs = certify_power_bounded(op, tol, peri_tol).eigenvalues
    a = op.entries
    n = op.dim
    p, sdim, _ = _sorted_schur_projection(
        a, lambda lam: abs(lam) >= 1 - peri_tol, semisimple_check=False, tol=tol)
    interior = eigs[np.abs(eigs) < 1 - peri_tol]
    rho_aws = float(np.max(np.abs(interior))) if interior.size else 0.0

    eye = np.eye(n, dtype=np.complex128)
    residual = float(matrix_norm(np.stack([p @ p - p, a @ p - p @ a]), op.norm_tag).max())

    rev_cols = scipy.linalg.orth(p) if sdim else np.zeros((n, 0))
    aws_cols = scipy.linalg.orth(eye - p) if sdim < n else np.zeros((n, 0))
    rev_basis = tuple(FiniteVector(rev_cols[:, i], op.norm_tag)
                      for i in range(rev_cols.shape[1]))
    aws_basis = tuple(FiniteVector(aws_cols[:, i], op.norm_tag)
                      for i in range(aws_cols.shape[1]))

    rev_action = None
    rev_power_bound = 0.0
    if sdim:
        r = rev_cols.conj().T @ a @ rev_cols
        rev_action = MatrixOperator(r, op.norm_tag)
        eye_r = np.eye(sdim, dtype=np.complex128)
        worst = 1.0
        for g in (r, np.linalg.inv(r)):
            for chunk in power_chunks(g, g @ eye_r, group_horizon):
                worst = max(worst, matrix_norm(chunk, op.norm_tag).max())
        rev_power_bound = float(worst)

    # geometric decay on the stable part
    decay = {}
    if aws_basis:
        r_eff = rho_aws + tol
        scale = r_eff ** np.arange(1, 201, dtype=np.float64)
        for idx, y in enumerate(aws_basis[: min(3, len(aws_basis))]):
            powers = np.concatenate(list(power_chunks(a, a @ y.coords, 200)))
            nrms = stacked_norms(powers, op.norm_tag)[0]
            with np.errstate(divide="ignore", invalid="ignore"):  # r_eff ** k may underflow
                ratios = np.where(nrms > 0, nrms / scale, 0.0)  # a vanished power adds 0
            decay[idx] = max(0.0, float(ratios.max())) if r_eff > 0 else 0.0
    diagnostics = {"aws_decay_constants": decay, "group_horizon": group_horizon}
    return JdlgSplit(MatrixOperator(p, op.norm_tag), rev_basis, aws_basis,
                     rev_action, rho_aws, rev_power_bound, residual, diagnostics)


@dataclass(frozen=True)
class KtzReport:
    decay_curve: np.ndarray         # n -> ||T^n (I - T)||, n = 1..horizon
    limit_projection: MatrixOperator
    limit_defect: float             # ||T^horizon - P||
    passed: bool


def ktz_check(op: MatrixOperator, horizon: int = 200, tol: float = 1e-9,
              peri_tol: float = PERIPHERAL_TOL) -> KtzReport:
    """Decay of ``||T^n (I - T)||`` under peripheral spectrum inside {1}.

    Precondition: certified power-bounded with sigma(T) on the unit
    circle contained in {1}; otherwise PeripheralSpectrumError.  Passes
    when the decay curve is eventually decreasing to <= tol and the
    powers converge to the mean-ergodic projection in norm.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    cert = certify_power_bounded(op, max(tol, 1e-10), peri_tol)
    bad = [z for z in cert.peripheral if abs(z - 1) > peri_tol * 10 + 1e-12]
    if bad:
        raise PeripheralSpectrumError(
            f"peripheral spectrum not contained in {{1}}: {bad}")
    a = op.entries
    diff = np.eye(op.dim, dtype=np.complex128) - a
    curve = []
    for chunk in power_chunks(a, a, horizon):  # T^1 .. T^horizon
        curve.append(matrix_norm(chunk @ diff, op.norm_tag))
    curve = np.concatenate(curve)
    dec = mean_ergodic_projection(op, max(tol, 1e-10), cert)
    limit_defect = matrix_norm(chunk[-1] - dec.projection.entries, op.norm_tag)
    tail = curve[horizon // 2:]
    eventually_decreasing = bool(np.all(np.diff(tail) <= 1e-12 + 1e-9 * tail[:-1]))
    passed = bool(eventually_decreasing and curve[-1] <= tol and limit_defect <= tol)
    return KtzReport(curve, dec.projection, float(limit_defect), passed)


@dataclass(frozen=True)
class CountablePeripheralReport:
    almost_periodic: bool
    split: JdlgSplit
    orbit_verdicts: tuple[str, ...]


def countable_peripheral_check(op: MatrixOperator, tol: float = 1e-8,
                               peri_tol: float = PERIPHERAL_TOL,
                               probes: Sequence[FiniteVector] | None = None,
                               seed: int = 7,
                               horizons: Sequence[int] = (200, 400, 800)) -> CountablePeripheralReport:
    """Almost periodicity from a finite peripheral spectrum.

    Splits the space, verifies the stable decay, and confirms orbit
    compactness numerically: packing diagnostics on probe vectors must
    saturate.  The probe epsilon is a sizable fraction of the probe norm
    because saturation must occur within the horizon (each irrational
    rotation direction fills its circle at rate ~1/n).  Rejects
    non-power-bounded inputs at the precondition.
    """
    split = jdlg_split(op, tol, peri_tol)
    if probes is None:
        rng = np.random.default_rng(seed)
        probes = []
        for _ in range(2):
            z = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
            z /= np.linalg.norm(z)
            probes.append(FiniteVector(z, op.norm_tag))
    verdicts = []
    for x in probes:
        eps = max(0.75 * x.norm(), 1e-6)
        rep = compactness_diagnostic(op, x, [eps], horizons, tol=min(eps / 8, 1e-6))
        verdicts.append(rep.verdict)
    ok = bool(split.residual <= 10 * tol and all(v == "saturating" for v in verdicts))
    return CountablePeripheralReport(ok, split, tuple(verdicts))


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
            if abs(lam) >= 1 - tol and abs(lam - 1) > tol:
                raise PeripheralSpectrumError(
                    f"half-sum eigenvalue {lam} peripheral but away from 1")
        return HalfSumResult(s, rep)
    if isinstance(op, DiagonalOperator):
        ks = np.arange(1, _HALF_SUM_SAMPLES + 1)
        lam = (1.0 + op.symbol.values(ks)) / 2.0
        lam_limit = (1.0 + op.symbol.limit_value) / 2.0
        eigs = tuple(complex(z) for z in lam) + (complex(lam_limit),)
        peri = tuple(z for z in eigs if abs(z) >= 1 - tol)
        rep = SpectrumReport(eigs, peri, None, tol, sampled=True)
        for z in peri:
            if abs(z - 1) > tol:
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
    notes: str
    cross_check: dict | None = None


def diagonal_jdlg(op: DiagonalOperator, cross_check: bool = True,
                  horizons: Sequence[int] = (100, 200, 400),
                  tol: float = 1e-8) -> DiagonalJdlgReport:
    """Symbolic splitting for the supported diagonal symbol families.

    For a unimodular symbol converging to a root of unity without
    attaining the limit, the almost periodic subspace coincides with the
    reversible one and equals c0, and the splitting projection acts as
    the identity there.  Constant symbols are plain rotations: the whole
    space is almost periodic.  Anything outside the catalogue is refused.
    """
    sym = op.symbol
    if sym.kind == "constant":
        report = DiagonalJdlgReport("whole", True, True,
                                    "rotation by a fixed angle; every orbit lies on a circle")
        return report
    if sym.kind not in ("harmonic", "root_perturbed") or sym.limit_attained is not False:
        raise UnsupportedSymbolError(
            f"symbol kind {sym.kind!r} is outside the supported families")

    m = sym.params[0] if sym.kind == "root_perturbed" else 1
    checks = None
    if cross_check:
        one = constant_one("c")
        grow = compactness_diagnostic(op, one, [1.0], horizons, tol=tol)
        probe = lin_comb([1.0, -1.0], [one, op.power(int(m)).apply(one)])
        pn, _ = sup_norm(probe, 1e-9)
        eps = 1.25 * pn
        probe_cloud = orbit(op, probe, max(horizons), tol=min(tol, eps / 100))
        sat = cloud_diagnostic(probe_cloud, [eps], horizons)
        checks = {
            "orbit_of_one": grow.verdict,
            "c0_probe": sat.verdict,
            "c0_probe_eps": eps,
            "consistent": grow.verdict == "growing" and sat.verdict == "saturating",
        }
    return DiagonalJdlgReport("c0", True, True,
                              f"symbol converges to a root of unity of order {m} "
                              "and never attains it",
                              checks)
