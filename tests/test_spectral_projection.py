"""The spectral projections built from the certification's SVDs.

``certify_power_bounded`` keeps, per peripheral cluster mu, orthonormal
bases R of ker(A - mu I) and L of ker((A - mu I)^H); the mean-ergodic and
reversible/stable projections are sums of R (L^H R)^-1 L^H.  These tests
hold them to a sorted-Schur-plus-Sylvester reference that lives here only,
pin the edge cases (the Jordan block at 1 is
``test_ergodic.py::TestFixSeparation``), and count the decompositions taken.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_power_bounded
from orbitlab import ergodic
from orbitlab.cli import report_value
from orbitlab.ergodic import certify_power_bounded, mean_ergodic_projection, spectrum_report
from orbitlab.errors import DecompositionError
from orbitlab.jdlg import jdlg_split
from orbitlab.operators import MatrixOperator, matrix_norm


def _one_of_multiplicity(rng, dim, mult):
    """A power-bounded matrix with eigenvalue 1 of multiplicity ``mult``,
    one more unimodular eigenvalue and the rest inside the disk, in a
    basis of condition number at most 20."""
    phase = rng.uniform(0.3, np.pi)
    n_in = dim - mult - 1
    inner = rng.uniform(0.3, 0.9, n_in) * np.exp(1j * rng.uniform(-np.pi, np.pi, n_in))
    eigs = np.concatenate([np.ones(mult), [np.exp(1j * phase)], inner])
    while True:
        v = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        if np.linalg.cond(v) <= 20.0:
            return MatrixOperator(v @ np.diag(eigs) @ np.linalg.inv(v))


def _schur_projection(linalg, a, select):
    """The spectral projection onto the eigenvalues ``select`` picks, from a
    sorted complex Schur form and a Sylvester solve."""
    n = a.shape[0]
    t, z, k = linalg.schur(a, output="complex", sort=select)
    assert 0 < k < n
    p = np.zeros((n, n), dtype=np.complex128)
    p[:k, :k] = np.eye(k)
    p[:k, k:] = linalg.solve_sylvester(t[:k, :k], -t[k:, k:], t[:k, k:])
    return z @ p @ z.conj().T


@pytest.fixture(scope="module")
def scipy_linalg():
    return pytest.importorskip("scipy.linalg")


def _check_projection(a, p, ref, range_basis, ker_basis, mult, scale):
    tol = 1e-12 * scale

    def norm(m):
        return matrix_norm(m, "euclidean")

    assert norm(p - ref) <= tol
    assert norm(p @ p - p) <= tol
    assert norm(a @ p - p @ a) <= tol
    q = np.column_stack([v.coords for v in range_basis])
    k = np.column_stack([v.coords for v in ker_basis])
    assert (q.shape[1], k.shape[1]) == (mult, len(a) - mult)
    for basis in (q, k):  # orthonormal
        assert norm(basis.conj().T @ basis - np.eye(basis.shape[1])) <= 1e-12
    assert norm(p @ q - q) <= tol  # in rg P, with its dimension: spans it
    assert norm(p @ k) <= tol      # in ker P, with its dimension: spans it


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(4, 10),
       kind=st.sampled_from(["battery", "one", "one-twice"]),
       tag=st.sampled_from(["euclidean", "sup"]))
def test_projections_match_the_schur_reference(scipy_linalg, seed, dim, kind, tag):
    rng = np.random.default_rng(seed)
    if kind == "battery":
        op, eigs, _ = random_power_bounded(rng, dim=dim, norm_tag=tag)
    else:
        op = _one_of_multiplicity(rng, dim, 1 if kind == "one" else 2)
        op = MatrixOperator(op.entries, tag)
        eigs = np.linalg.eigvals(op.entries)
    a = op.entries
    scale = max(1.0, matrix_norm(a, "euclidean"))
    n_one = int(np.sum(np.abs(eigs - 1) <= 1e-7))
    n_uni = int(np.sum(np.abs(eigs) >= 1 - 1e-9))

    dec = mean_ergodic_projection(op)
    ref = _schur_projection(scipy_linalg, a, lambda lam: abs(lam - 1.0) <= 1e-7)
    _check_projection(a, dec.projection.entries, ref, dec.fix_basis, dec.range_basis,
                      n_one, scale)
    split = jdlg_split(op, group_horizon=10)
    ref = _schur_projection(scipy_linalg, a, lambda lam: abs(lam) >= 1 - 1e-9)
    _check_projection(a, split.projection.entries, ref, split.rev_basis, split.aws_basis,
                      n_uni, scale)


class TestEdgeCases:
    def test_two_eigenvalues_in_one_cluster_raise(self):
        # 1 and e^{i 0.9e-7} share the 1e-7 cluster radius but not an eigenvector
        op = MatrixOperator(np.diag([1.0, np.exp(0.9e-7j), 0.5]))
        for split in (mean_ergodic_projection, jdlg_split):
            with pytest.raises(DecompositionError, match="cluster at .* holds 2 eigenvalues"):
                split(op)

    def test_double_eigenvalue_one_gives_rank_two(self):
        op = MatrixOperator(np.diag([1.0, 1.0, 0.3]))
        want = np.diag([1.0, 1.0, 0.0])
        dec = mean_ergodic_projection(op)
        split = jdlg_split(op, group_horizon=10)
        assert np.allclose(dec.projection.entries, want, atol=1e-15)
        assert np.allclose(split.projection.entries, want, atol=1e-15)
        assert (len(dec.fix_basis), len(dec.range_basis)) == (2, 1)
        assert (len(split.rev_basis), len(split.aws_basis)) == (2, 1)

    def test_no_peripheral_spectrum_gives_zero(self):
        op = MatrixOperator(np.diag([0.5, 0.2]))
        dec = mean_ergodic_projection(op)
        split = jdlg_split(op, group_horizon=10)
        for p in (dec.projection.entries, split.projection.entries):
            assert not p.any()
        assert (len(dec.fix_basis), len(dec.range_basis)) == (0, 2)
        assert (len(split.rev_basis), len(split.aws_basis)) == (0, 2)
        assert split.rev_action is None and dec.cesaro_constant > 0


def test_one_svd_pair_per_cluster_and_none_for_the_projection(monkeypatch):
    op = MatrixOperator(np.diag([1.0, 1.0, 1j, -1.0, 0.5]))  # three clusters
    calls = []
    real_svd = np.linalg.svd

    def svd(a, *args, compute_uv=True, **kw):
        calls.append(compute_uv)
        return real_svd(a, *args, compute_uv=compute_uv, **kw)

    monkeypatch.setattr(np.linalg, "svd", svd)
    spec = certify_power_bounded(op)
    assert sorted(calls) == [False] * 3 + [True] * 3
    assert [r.shape[1] for _, r, _ in spec.null_bases] == [1, 1, 2]
    assert spec == spectrum_report(op)  # the bases are not compared, nor printed
    assert "null_bases" not in report_value(spec)

    def refuse(*args, **kw):
        raise AssertionError("a decomposition in the projection step")

    for name in ("svd", "eig", "eigvals", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    p, rg, ker = ergodic._spectral_projection(spec.null_bases, op.dim)
    assert np.allclose(p, np.diag([1.0, 1.0, 1.0, 1.0, 0.0]), atol=1e-15)
    assert (rg.shape[1], ker.shape[1]) == (4, 1)
