"""The matrix power kernel against the hand-written loops it replaced.

Each ``ref_*`` function below is the loop a report site ran before the
kernel existed.  Every curve must match it bit for bit, in both norm
tags, with the default chunk, with chunks of a few powers and with a
chunk smaller than one matrix (every power its own chunk).
"""

import numpy as np
import pytest

from conftest import random_contraction, random_power_bounded, ref_net
from orbitlab import operators
from orbitlab.ergodic import cesaro, mean_ergodic_projection
from orbitlab.jdlg import jdlg_split, ktz_check
from orbitlab.operators import MatrixOperator, power_bound_estimate
from orbitlab.orbits import orbit
from orbitlab.seqspace import FiniteVector, stacked_norms


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


def ref_mean_ergodic(op, projection, sdim):
    """Cesaro constant and samples as two stacks formed them: the power bound
    over a^1 .. a^200 from a loop that starts at a, the sums from a loop over
    I, a I, a (a I), ... that starts from zero."""
    a = op.entries
    eye = np.eye(op.dim, dtype=np.complex128)
    cur = a.copy()
    worst = _norm(cur, op.norm_tag)
    for _ in range(199):
        cur = a @ cur
        worst = max(worst, _norm(cur, op.norm_tag))
    c_bound = 0.0
    if sdim < op.dim:
        c_bound = (1.0 + worst) * _norm(np.linalg.solve(eye - a + projection, eye - projection),
                                        op.norm_tag)
    samples, acc, cur = {}, np.zeros_like(eye), eye
    for k in range(1, 257):
        acc = acc + cur
        cur = a @ cur
        if k in (16, 64, 256):
            samples[k] = _norm(acc / k - projection, op.norm_tag)
    return c_bound, samples


@TAGS
def test_mean_ergodic_one_stack_matches_two_loops(rng, chunk, tag):
    only_one, rotating = batteries(rng, tag)
    for op in only_one + rotating:
        dec = mean_ergodic_projection(op)
        c_bound, samples = ref_mean_ergodic(op, dec.projection.entries, len(dec.fix_basis))
        assert same_bits(dec.cesaro_constant, c_bound)
        assert dec.convergence_samples.keys() == samples.keys()
        assert all(same_bits(dec.convergence_samples[k], samples[k]) for k in samples)


def ref_decay_constants(op, split, tol):
    """The stable-part decay constants as the per-vector loop took them."""
    r_eff = split.aws_spectral_radius + tol
    out = {}
    for idx, y in enumerate(split.aws_basis[:3]):
        cur, worst = y.coords, 0.0
        for k in range(1, 201):
            cur = op.entries @ cur
            worst = max(worst, FiniteVector(cur, op.norm_tag).norm() / r_eff ** k)
        out[idx] = worst
    return out


@TAGS
def test_jdlg_decay_constants_match_loop(rng, chunk, tag):
    # The stacked and per-vector euclidean norms are each within
    # gamma_{2N+4} of the exact norm (stacked_norms); Python's and numpy's
    # pow and the division add an ulp each.  Sup norms agree exactly.
    only_one, rotating = batteries(rng, tag)
    for op in only_one + rotating:
        split = jdlg_split(op, group_horizon=10)
        got = split.diagnostics["aws_decay_constants"]
        want = ref_decay_constants(op, split, 1e-8)
        assert got.keys() == want.keys() and got
        ulps = 4 * (2 * op.dim + 4) + 8 if tag == "euclidean" else 8
        for idx in want:
            assert abs(got[idx] - want[idx]) <= ulps * 2.0 ** -53 * want[idx]


@pytest.mark.parametrize("rate", [0.01, 0.0])
def test_jdlg_decay_constants_survive_underflow(rate):
    # r_eff ** k underflows to 0 long before k = 200 here; the per-vector
    # loop divided by it and raised ZeroDivisionError
    split = jdlg_split(MatrixOperator(np.diag([1.0, rate]).astype(np.complex128)))
    assert 0.0 <= split.diagnostics["aws_decay_constants"][0] <= 1.0


def pair_decisions(points, tag, eps):
    """The finite-vector decision on one candidate and member pair at a
    time, over FiniteVector differences."""
    def separated(i, m):
        v, rho = stacked_norms(FiniteVector(points[i] - points[m], tag).coords, tag)
        return v * (1.0 - rho) > eps
    return separated


def net_epsilons(points, tag, rng):
    """Epsilons that cut the cloud's distances, and some that sit inside the
    rounding bracket of one of them (a straddle, decided "no")."""
    norms, rho = stacked_norms(points[1:] - points[0], tag)
    picks = rng.choice(norms[norms > 1e-6], size=3)
    return [float(np.quantile(norms, q)) for q in (0.1, 0.5)] + \
        [float(v * (1.0 - rho / 2)) for v in picks] + [float(v) for v in picks[:1]]


@TAGS
@pytest.mark.parametrize("cap", [None, 1, 3, 8])
def test_matrix_net_matches_pairwise_reference(rng, chunk, tag, cap):
    only_one, rotating = batteries(rng, tag)
    for op in only_one + rotating:
        for x in (vector_with_zeros(op.dim, tag),
                  FiniteVector(rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim),
                               tag)):
            horizon = int(rng.integers(1, 301))
            cloud = orbit(op, x, horizon, tol=1e-12)
            points = np.array(ref_cloud(op, x, horizon))
            for eps in net_epsilons(points, tag, rng) if horizon > 1 else [0.5]:
                want = ref_net(range(len(points)), pair_decisions(points, tag, eps), cap)
                assert cloud.greedy_net(eps, cap) == want


@TAGS
def test_distance_bracket_contains_exact_distance(rng, tag):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    u = mp.mpf(2) ** -53

    def exact(p, q):
        parts = [mp.mpf(float(z.real)) - mp.mpf(float(w.real)) for z, w in zip(p, q)]
        parts += [mp.mpf(float(z.imag)) - mp.mpf(float(w.imag)) for z, w in zip(p, q)]
        half = len(p)
        mods = [mp.sqrt(parts[k] ** 2 + parts[k + half] ** 2) for k in range(half)]
        return max(mods) if tag == "sup" else mp.sqrt(mp.fsum(m ** 2 for m in mods))

    only_one, rotating = batteries(rng, tag)
    for op in only_one + rotating:
        x = FiniteVector(rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim), tag)
        cloud = orbit(op, x, 500, tol=1e-12)
        for n, m in rng.integers(1, 501, size=(40, 2)):
            p, q = cloud.vector(int(n)).coords, cloud.vector(int(m)).coords
            w = exact(p, q)
            value, err = cloud.distance(int(n), int(m))
            assert value - err <= w <= value + err
            v, rho = stacked_norms(p - q, tag)
            assert mp.mpf(float(v * (1.0 - rho))) <= w <= mp.mpf(float(v)) * (1 + mp.mpf(rho))
            # the radius is not padded beyond the few units its proof adds
            assert rho <= (2 * op.dim + 8) * u * 1.01
