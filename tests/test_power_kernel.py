"""The matrix power kernel against the hand-written loops it replaced.

Each ``ref_*`` function below is the loop a report site ran before the
kernel existed.  Every curve must match it bit for bit, in both norm
tags, with the default chunk, with chunks of a few powers and with a
chunk smaller than one matrix (every power its own chunk).
"""

import numpy as np
import pytest

from conftest import random_contraction, random_power_bounded
from orbitlab import operators
from orbitlab.ergodic import cesaro
from orbitlab.jdlg import jdlg_split, ktz_check
from orbitlab.operators import MatrixOperator, power_bound_estimate
from orbitlab.orbits import orbit
from orbitlab.seqspace import FiniteVector


def _norm(a, tag):
    """``matrix_norm`` of one matrix, as it was before stacks."""
    if tag == "sup":
        return float(np.max(np.sum(np.abs(a), axis=1)))
    return float(np.linalg.norm(a, 2))


def ref_power_bound(op, horizon, probes):
    norms = np.empty(horizon)
    p = op.entries.copy()
    probe_vals = [np.empty(horizon) for _ in probes]
    for n in range(horizon):
        if n:
            p = op.entries @ p
        norms[n] = _norm(p, op.norm_tag)
        for i, x in enumerate(probes):
            probe_vals[i][n] = FiniteVector(p @ x.coords, x.norm_tag).norm()
    half = horizon // 2
    flag = bool(norms[half:].max() <= norms[:half].max() * (1 + 1e-9) + 1e-12)
    return float(norms.max()), flag, tuple(float(v.min()) for v in probe_vals)


def ref_ktz(op, horizon, projection):
    a = op.entries
    diff = np.eye(op.dim, dtype=np.complex128) - a
    cur = a.copy()
    curve = np.empty(horizon)
    for k in range(horizon):
        if k:
            cur = a @ cur
        curve[k] = _norm(cur @ diff, op.norm_tag)
    return curve, _norm(cur - projection, op.norm_tag)


def ref_rev_power_bound(r, tag, group_horizon):
    r_inv = np.linalg.inv(r)
    cur_p = cur_m = np.eye(r.shape[0], dtype=np.complex128)
    worst = 1.0
    for _ in range(group_horizon):
        cur_p = r @ cur_p
        cur_m = r_inv @ cur_m
        worst = max(worst, _norm(cur_p, tag), _norm(cur_m, tag))
    return float(worst)


def ref_cloud(op, x, horizon):
    out, cur = [], x.coords
    for _ in range(horizon):
        cur = op.entries @ cur
        out.append(cur)
    return out


def ref_cesaro(op, x, n):
    acc = np.zeros_like(x.coords)
    cur = x.coords.copy()
    for _ in range(n):
        acc += cur
        cur = op.entries @ cur
    return acc / n


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.array_equal(got, want)
            and np.array_equal(np.ascontiguousarray(got).view(np.uint8),
                               np.ascontiguousarray(want).view(np.uint8)))


def signed_zeros(tag):
    """Triangular, eigenvalues 1, 0.3, -0.2, 0.1, zeros of both signs.  Its
    2-norm is the largest of its powers and moves by one ulp in ``a @ I``,
    which drops the signs: a kernel that starts from ``I`` fails here."""
    a = np.empty((4, 4), dtype=np.complex128)
    a.real = [[1.0, -0.0, 0.348, -0.0], [-0.0, 0.3, 0.0, -0.0],
              [-0.0, -0.0, -0.2, -1.59], [0.0, -0.0, -0.0, 0.1]]
    a.imag = [[-0.0, -0.526, -0.0, -0.364], [0.0, 0.0, -0.0, 1.138],
              [-0.0, 0.0, -0.0, -0.0], [-0.0, -0.0, 0.0, 0.0]]
    assert np.linalg.norm(a, 2) != np.linalg.norm(a @ np.eye(4, dtype=np.complex128), 2)
    return MatrixOperator(a, tag)


def vector_with_zeros(dim, tag):
    z = np.zeros(dim, dtype=np.complex128)
    z.real[::2] = 1.0 / np.arange(1, dim + 1)[::2]
    z.real[1::2] = -0.0
    z.imag[::3] = -0.0
    return FiniteVector(z, tag)


def batteries(rng, tag):
    """(matrices with peripheral spectrum inside {1}, other power-bounded ones)."""
    only_one = [random_power_bounded(rng, dim=6, norm_tag=tag, max_uni=1)[0],
                random_contraction(rng, dim=6, norm_tag=tag), signed_zeros(tag)]
    rotating = [random_power_bounded(rng, dim=6, norm_tag=tag, max_uni=3)[0]]
    return only_one, rotating


@pytest.fixture(params=[None, 100, 1], ids=["default-chunk", "two-powers", "one-power"])
def chunk(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(operators, "POWER_CHUNK_ENTRIES", request.param)
    return request.param


TAGS = pytest.mark.parametrize("tag", ["euclidean", "sup"])


@TAGS
def test_power_bound_estimate_matches_loop(rng, chunk, tag):
    only_one, rotating = batteries(rng, tag)
    for op in only_one + rotating:
        probes = [vector_with_zeros(op.dim, tag),
                  FiniteVector(rng.standard_normal(op.dim) + 0j, tag)]
        est = power_bound_estimate(op, 57, probes)
        sup, flag, infs = ref_power_bound(op, 57, probes)
        assert same_bits(est.sup_estimate, sup)
        assert est.power_bounded_flag == flag
        assert all(same_bits(g, w) for g, w in zip(est.probe_infs, infs))
        assert len(est.probe_infs) == 2


@TAGS
def test_ktz_curve_and_limit_defect_match_loop(rng, chunk, tag):
    only_one, _ = batteries(rng, tag)
    for op in only_one:
        rep = ktz_check(op, horizon=203)
        curve, defect = ref_ktz(op, 203, rep.limit_projection.entries)
        assert same_bits(rep.decay_curve, curve)
        assert same_bits(rep.limit_defect, defect)


@TAGS
def test_jdlg_rev_power_bound_matches_loop(rng, chunk, tag):
    only_one, rotating = batteries(rng, tag)
    for op in only_one + rotating:
        split = jdlg_split(op, group_horizon=150)
        if split.rev_action is None:
            assert split.rev_power_bound == 0.0
            continue
        want = ref_rev_power_bound(split.rev_action.entries, tag, 150)
        assert same_bits(split.rev_power_bound, want)


@TAGS
def test_matrix_cloud_vectors_match_loop(rng, chunk, tag):
    only_one, rotating = batteries(rng, tag)
    for op in only_one + rotating:
        x = vector_with_zeros(op.dim, tag)
        cloud = orbit(op, x, 41)
        for n, want in enumerate(ref_cloud(op, x, 41), 1):
            assert same_bits(cloud.vector(n).coords, want)


@TAGS
@pytest.mark.parametrize("n", [1, 2, 17, 64])
def test_matrix_cesaro_matches_loop(rng, chunk, tag, n):
    only_one, rotating = batteries(rng, tag)
    for op in only_one + rotating:
        x = vector_with_zeros(op.dim, tag)
        assert same_bits(cesaro(op, x, n).coords, ref_cesaro(op, x, n))
