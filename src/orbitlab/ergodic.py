"""Cesaro means, mean-ergodic projections and mean-ergodicity verdicts.

Matrices get the full spectral treatment: power-boundedness is
certified by spectral radius <= 1 + tol together with semisimplicity of
every peripheral eigenvalue (rank(T - mu I) == rank((T - mu I)^2)), and
the mean-ergodic projection is the spectral projection onto ker(I - T)
along rg(I - T).  It is built from the certification's SVDs: with R and
L orthonormal bases of ker(T - mu I) and ker((T - mu I)^H), the
projection onto the eigenspace of mu is R (L^H R)^-1 L^H.  Sampling
alone can miss slow Jordan growth, hence the spectral certificate.

Diagonal operators get symbolic verdicts driven by the symbol family
metadata (the infinite-dimensional claims cannot be established by
truncation), cross-checked numerically through the closed-form Cesaro
coordinates x_k (1 - a_k^n) / (n (1 - a_k)).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import (DecompositionError, NotPowerBoundedError,
                     UnsupportedSymbolError)
from .operators import DiagonalOperator, MatrixOperator, matrix_norm, max_matrix_norm, power_chunks
from .seqspace import (FiniteVector, SeqVector, TailCertificate, basis_vector,
                       checked_coords, combine_tails, constant_one, lin_comb, sup_norm)

__all__ = [
    "SpectrumReport",
    "ErgodicDecomposition",
    "MeanErgodicVerdict",
    "DecompositionParts",
    "spectrum_report",
    "certify_power_bounded",
    "cesaro",
    "mean_ergodic_projection",
    "diagonal_mean_ergodic_verdict",
    "decomposition_check",
]

PERIPHERAL_TOL = 1e-9  # peripheral-shell width for exact inputs
_GAP_HEAD_TOL = 1e-6  # the symbol gap samples the head until the tail bound is below this


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues with their peripheral sublist (|lambda| >= 1 - peri_tol).

    A record from ``certify_power_bounded`` also holds, per peripheral
    cluster mu, ``(mu, R, L)``: orthonormal bases R of ker(T - mu I) and L
    of ker((T - mu I)^H).  Reports do not print them.
    """

    eigenvalues: tuple[complex, ...]
    peripheral: tuple[complex, ...]
    peri_tol: float
    sampled: bool = False
    null_bases: tuple[tuple[complex, np.ndarray, np.ndarray], ...] = field(
        default=(), compare=False, repr=False)

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.eigenvalues)))


def spectrum_report(op: MatrixOperator, peri_tol: float = PERIPHERAL_TOL) -> SpectrumReport:
    """The eigenvalues of a matrix, sorted by real then imaginary part."""
    eigs = np.linalg.eigvals(op.entries)
    order = np.lexsort((eigs.imag, eigs.real))
    eigs = eigs[order]
    peri = tuple(complex(z) for z in eigs[np.abs(eigs) >= 1 - peri_tol])
    return SpectrumReport(tuple(complex(z) for z in eigs), peri, peri_tol)


def _cluster(values, radius: float) -> list[complex]:
    """One representative per run of values within ``radius`` of an earlier one."""
    centers: list[complex] = []
    for lam in values:
        if not any(abs(lam - c) <= radius for c in centers):
            centers.append(lam)
    return centers


def certify_power_bounded(op: MatrixOperator, tol: float = 1e-8) -> SpectrumReport:
    """Certify sup_n ||T^n|| < infinity spectrally and return the spectrum.

    Requires spectral radius <= 1 + tol and every peripheral eigenvalue
    semisimple.  Raises NotPowerBoundedError otherwise, and
    DecompositionError when a peripheral cluster's eigenspace dimension
    differs from the number of eigenvalues within the cluster radius
    (two distinct eigenvalues in one cluster).  The record holds each
    cluster's null bases, read off the SVD of the rank test.
    """
    rep = spectrum_report(op)
    rho = rep.spectral_radius
    if rho > 1.0 + tol:
        raise NotPowerBoundedError(f"spectral radius {rho:g} exceeds 1 + {tol:g}")
    a, n = op.entries, op.dim
    scale = max(1.0, matrix_norm(a, "euclidean"))
    cut = n * np.finfo(float).eps * scale * 8  # the rank threshold of A - mu I
    radius = 1e-7 * scale
    eigs = np.array(rep.eigenvalues)
    bases = []
    for mu in _cluster(rep.peripheral, radius):  # a multiple eigenvalue once
        b = a - mu * np.eye(n)
        u, s, vh = np.linalg.svd(b)
        rank = int(np.sum(s > cut))
        if rank != int(np.sum(np.linalg.svd(b @ b, compute_uv=False) > cut * scale)):
            raise NotPowerBoundedError(
                f"peripheral eigenvalue {mu:.6g} is defective (non-semisimple)")
        count = int(np.sum(np.abs(eigs - mu) <= radius))
        if n - rank != count:
            raise DecompositionError(
                f"peripheral cluster at {mu:.6g} holds {count} eigenvalues but "
                f"a {n - rank}-dimensional eigenspace")
        bases.append((mu, vh[rank:].conj().T, u[:, rank:]))
    return replace(rep, null_bases=tuple(bases))


# ---------------------------------------------------------------------------
# Cesaro means

def cesaro(op, x, n: int):
    """Cesaro average ``A_n x = (1/n) sum_{k<n} T^k x``.

    Matrices sum directly; diagonal operators use the closed form per
    coordinate, ``x_k`` when ``a_k = 1`` and
    ``x_k (1 - a_k^n) / (n (1 - a_k))`` otherwise (the limit coordinate
    is handled the same way with ``a_infinity``).  That factor has modulus
    <= 1 for unimodular ``a_k``, so the mean keeps the majorant of ``x``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(op, MatrixOperator):
        acc = np.zeros_like(x.coords)  # x + a x + ... in the order of a loop from zero
        for chunk in power_chunks(op.entries, x.coords, n):
            acc = np.cumsum(np.concatenate((acc[None], chunk)), axis=0)[-1]
        return FiniteVector(acc / n, x.norm_tag)
    if not isinstance(op, DiagonalOperator):
        raise TypeError(f"unsupported operator type {type(op).__name__}")

    sym = op.symbol

    def dirichlet(a, xs):
        one = np.ones_like(a)
        den = n * (one - a)
        fixed = den == 0
        den_safe = np.where(fixed, 1.0, den)
        avg = (one - a ** n) / den_safe
        return np.where(fixed, xs, xs * avg)

    def coord(ks, _x=x, _sym=sym):
        return dirichlet(_sym.values(ks), checked_coords(_x, ks))

    a_lim = sym.limit_value
    if a_lim == 1:
        limit = x.limit
    else:
        limit = x.limit * (1 - a_lim ** n) / (n * (1 - a_lim))
    # |A_n x(k) - A_n x(oo)| <= |x_k - x_oo| + |x_oo| (n-1)/2 |a_k - a_oo|
    tail = TailCertificate(*combine_tails([
        (1.0, x.tail),
        (abs(x.limit) * (n - 1) / 2.0, sym.tail),
    ]))
    return SeqVector(coord, limit, tail, x.space_tag, max(x.majorant, abs(limit)))


# ---------------------------------------------------------------------------
# Matrix mean-ergodic machinery

@dataclass(frozen=True)
class ErgodicDecomposition:
    """Spectral projection onto fix(T) along rg(I - T) with verification data."""

    projection: MatrixOperator
    fix_basis: tuple[FiniteVector, ...]
    range_basis: tuple[FiniteVector, ...]
    residual: float
    cesaro_constant: float                 # ||A_n - P|| <= cesaro_constant / n
    convergence_samples: dict = field(default_factory=dict)


def _spectral_projection(clusters, dim: int):
    """P, the sum of ``R (L^H R)^-1 L^H`` over certified ``(mu, R, L)``
    clusters, with orthonormal bases of rg P and ker P = rg(I - P).

    The stacked R span rg P.  P x = 0 exactly when L^H x = 0, so ker P is
    the orthogonal complement of the stacked L: the trailing columns of a
    complete QR of it.
    """
    p = np.zeros((dim, dim), dtype=np.complex128)
    for _, r, l in clusters:
        p += r @ np.linalg.solve(l.conj().T @ r, l.conj().T)
    empty = np.zeros((dim, 0), dtype=np.complex128)
    rs = np.hstack([empty] + [r for _, r, _ in clusters])
    ls = np.hstack([empty] + [l for _, _, l in clusters])
    return p, np.linalg.qr(rs)[0], np.linalg.qr(ls, mode="complete")[0][:, ls.shape[1]:]


class _CesaroStack:
    """M, the largest ``||a^k||`` for k <= 200, and the Cesaro sums ``I + a +
    ... + a^(n-1)``, n in ``counts``, from the chunks of a stack a^1, a^2, ...
    (past a^255 unread), added in the order of a loop from zero.  The stack
    starts at a: a @ I drops the signs of zeros and can move a 2-norm by an
    ulp, while a sum from I = 0 + I has no negative zero, so the sums are an
    I-started stack's, bit for bit."""

    counts, bound_horizon = (16, 64, 256), 200

    def __init__(self, dim: int, norm_tag: str):
        self.norm_tag, self.m_est, self.sums, self.done = norm_tag, 0.0, {}, 1
        self.acc = np.eye(dim, dtype=np.complex128)  # the sum of a^0 .. a^(done-1)

    def add(self, chunk: np.ndarray) -> None:  # chunk: a^done, a^(done+1), ...
        done, chunk = self.done, chunk[:self.counts[-1] - self.done]
        if done <= self.bound_horizon:
            bounded = chunk[:self.bound_horizon + 1 - done]
            self.m_est = max(self.m_est, max_matrix_norm(bounded, self.norm_tag))
        run = np.cumsum(np.concatenate((self.acc[None], chunk)), axis=0)
        self.sums.update((n, run[n - done]) for n in self.counts if done < n <= done + len(chunk))
        self.done, self.acc = done + len(chunk), run[-1]


def mean_ergodic_projection(op: MatrixOperator, tol: float = 1e-8) -> ErgodicDecomposition:
    """Mean-ergodic projection P with ||A_n - P|| <= C/n verified.

    P is the spectral projection of the certified peripheral clusters
    within 1e-7 of 1.  A defective eigenvalue 1 raises
    NotPowerBoundedError, a cluster at 1 that holds another eigenvalue
    DecompositionError.
    """
    return _mean_ergodic_projection(op, certify_power_bounded(op, tol), tol)


def _mean_ergodic_projection(op, spec: SpectrumReport, tol, stack: _CesaroStack | None = None):
    """``mean_ergodic_projection`` of ``op`` from its certified record
    ``spec``, with M and the Cesaro sums from ``stack``."""
    a = op.entries
    n = op.dim
    scale = max(1.0, matrix_norm(a, op.norm_tag))
    p, fix_cols, range_cols = _spectral_projection(
        [c for c in spec.null_bases if abs(c[0] - 1.0) <= 1e-7], n)

    eye = np.eye(n, dtype=np.complex128)
    residual = float(matrix_norm(np.stack([p @ p - p, a @ p - p, p @ a - p]),
                                 op.norm_tag).max())
    if residual > tol * scale:
        raise DecompositionError(f"projection residual {residual:g} above tolerance")
    fix_basis = tuple(FiniteVector(c, op.norm_tag) for c in fix_cols.T)
    range_basis = tuple(FiniteVector(c, op.norm_tag) for c in range_cols.T)

    if stack is None:  # one stack of a^1 .. a^255 gives M and the Cesaro sums
        stack = _CesaroStack(n, op.norm_tag)
        for chunk in power_chunks(a, a, stack.counts[-1] - 1):
            stack.add(chunk)

    # ||A_n - P|| = ||(1/n)(I - T^n)(I - T)^{-1}(I - P)|| <= (1 + M)/n * ||Y||
    if range_basis:
        y = np.linalg.solve(eye - a + p, eye - p)
        c_bound = (1.0 + stack.m_est) * matrix_norm(y, op.norm_tag)
    else:
        c_bound = 0.0

    samples = {}
    for nn in stack.counts:
        diff = matrix_norm(stack.sums[nn] / nn - p, op.norm_tag)
        samples[nn] = diff
        if diff > c_bound / nn + tol * scale:
            raise DecompositionError(
                f"Cesaro mean at n={nn} misses the projection: {diff:g} > {c_bound / nn:g}")

    return ErgodicDecomposition(MatrixOperator(p, op.norm_tag), fix_basis,
                                range_basis, residual, c_bound, samples)


@dataclass(frozen=True)
class MeanErgodicVerdict:
    is_mean_ergodic: bool
    reason: str       # fix-separates | limit-functional-obstruction | cesaro-converged
    evidence: dict


def _certified_symbol_gap(sym) -> float:
    """Certified inf over the closed, non-fixed symbol range of |1 - a|.

    Exactly fixed indices (a_k == 1 by family structure) are excluded;
    the tail beyond the sampled head is controlled by the certificate.
    """
    gap_limit = abs(1.0 - sym.limit_value)
    k_head = sym.tail.first_index_below(max(gap_limit / 2, _GAP_HEAD_TOL)) or 4096
    k_head = min(max(k_head, 64), 1 << 22)
    ks = np.arange(1, k_head + 1)
    vals = np.abs(1.0 - sym.values(ks))
    fixed = set(sym.unit_fixed_indices or ())
    if fixed:
        vals = vals[np.isin(ks, sorted(fixed), invert=True)]
    head_min = float(vals.min()) if vals.size else np.inf
    tail_min = gap_limit - float(sym.tail.bound(k_head))
    return max(0.0, min(head_min, tail_min))


def diagonal_mean_ergodic_verdict(op: DiagonalOperator,
                                  sample_ns: Sequence[int] = (10, 100, 1000),
                                  probe: SeqVector | None = None) -> MeanErgodicVerdict:
    """Symbolic mean-ergodicity verdict for a diagonal operator.

    On c: NOT mean ergodic when the symbol tends to 1 without attaining
    it (the limit functional is a nonzero fixed adjoint vector while
    fix(T) is trivial); mean ergodic when the symbol limit stays away
    from 1,  with ||A_n|| <= 2/(n * gap) from the closed form.  On c0
    the operator is always mean ergodic.  Numeric Cesaro cross-checks at
    ``sample_ns`` are recorded as evidence.

    Powers of a catalogued symbol are refused rather than guessed.
    """
    sym = op.symbol
    if sym.exponent != 1:
        raise UnsupportedSymbolError(
            f"mean-ergodicity verdicts cover the catalogued symbols, not their powers "
            f"(exponent {sym.exponent})")

    evidence: dict = {"kind": sym.kind, "space": op.space_tag}
    limit_is_one = sym.limit_value == 1

    if op.space_tag == "c0":
        probe = probe or basis_vector(2, "c0")
        curve = {}
        for n in sample_ns:
            val, err = sup_norm(cesaro(op, probe, n), 1e-6)
            curve[int(n)] = val + err
        evidence["cesaro_probe_curve"] = curve
        return MeanErgodicVerdict(True, "cesaro-converged", evidence)

    if limit_is_one and sym.limit_attained:
        # a constant symbol at angle 0, the identity operator: A_n x = x
        evidence["note"] = "identity symbol"
        return MeanErgodicVerdict(True, "fix-separates", evidence)

    if limit_is_one:
        # symbol converges to 1 but never equals it: the coordinate fixed
        # space is trivial while the limit functional is fixed under the
        # adjoint.  The limit coordinate of A_n 1 equals 1 for every n.
        one = constant_one("c")
        curve = {}
        for n in sample_ns:
            an = cesaro(op, one, n)
            val, err = sup_norm(an, 1e-3)
            curve[int(n)] = val
            evidence.setdefault("limit_coordinate", abs(an.limit))
        evidence["cesaro_sup_curve"] = curve
        evidence["fixed_indices"] = list(sym.unit_fixed_indices or ())
        return MeanErgodicVerdict(False, "limit-functional-obstruction", evidence)

    gap = _certified_symbol_gap(sym)
    evidence["symbol_gap"] = gap
    evidence["cesaro_norm_bound_constant"] = 2.0 / gap if gap > 0 else None  # uncertified
    # the closed-form C/n bound governs the non-fixed coordinates; exactly
    # fixed coordinates pass through the averages untouched
    one = constant_one("c")
    fixed = list(sym.unit_fixed_indices or ())
    n_check = max(sample_ns)
    an = cesaro(op, one, n_check)
    if fixed:
        an = lin_comb([1.0] + [-1.0] * len(fixed),
                      [an] + [basis_vector(k, "c") for k in fixed])
    val, err = sup_norm(an, 1e-6)
    evidence["cesaro_cross_check"] = {int(n_check): val + err}
    if gap > 0 and val - err > 2.0 / (n_check * gap) + 1e-9:
        raise DecompositionError("closed-form Cesaro bound violated; symbol metadata wrong")
    return MeanErgodicVerdict(True, "cesaro-converged", evidence)


@dataclass(frozen=True)
class DecompositionParts:
    fix_part: FiniteVector
    range_part: FiniteVector
    residual: float
    decomposition: ErgodicDecomposition     # the projection the split used


def decomposition_check(op: MatrixOperator, x: FiniteVector,
                        tol: float = 1e-8) -> DecompositionParts:
    """Split ``x = P x + (x - P x)`` and verify both memberships.

    ``T (P x) = P x`` within tol and ``x - P x`` lies in the span of the
    range basis with least-squares residual <= tol, else
    DecompositionError.
    """
    dec = mean_ergodic_projection(op, tol)
    p = dec.projection.entries
    fix_part = FiniteVector(p @ x.coords, x.norm_tag)
    range_part = FiniteVector(x.coords - fix_part.coords, x.norm_tag)
    scale = max(1.0, x.norm())
    fix_defect = FiniteVector(op.entries @ fix_part.coords - fix_part.coords,
                              x.norm_tag).norm()
    if fix_defect > tol * scale:
        raise DecompositionError(f"fix part moved by T: {fix_defect:g}")
    if dec.range_basis:
        b = np.column_stack([v.coords for v in dec.range_basis])
        coeffs, *_ = np.linalg.lstsq(b, range_part.coords, rcond=None)
        resid = FiniteVector(range_part.coords - b @ coeffs, x.norm_tag).norm()
    else:
        resid = range_part.norm()
    if resid > tol * scale:
        raise DecompositionError(f"range part outside rg(I - T): residual {resid:g}")
    return DecompositionParts(fix_part, range_part, float(resid), dec)
