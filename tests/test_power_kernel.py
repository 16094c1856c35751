"""The matrix power kernel against the hand-written loops it replaced.

Each ``ref_*`` function below is the loop a report site ran before the
kernel existed.  Every curve must match it bit for bit, in both norm
tags, with the default chunk, with chunks of a few powers and with a
chunk smaller than one matrix (every power its own chunk).  The pruned
maximum ``max_matrix_norm`` must equal the maximum over the full stack
bit for bit, settle a decaying power stack from one block of SVDs, and a
group check's stack of 2000 powers from at most 32 SVDs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_contraction, random_power_bounded, ref_net
from orbitlab import ergodic, jdlg, operators
from orbitlab.ergodic import cesaro, mean_ergodic_projection
from orbitlab.jdlg import jdlg_split, ktz_check
from orbitlab.operators import MatrixOperator, matrix_norm, max_matrix_norm, power_bound_estimate
from orbitlab.orbits import orbit
from orbitlab.seqspace import FiniteVector, stacked_norms


def _norm(a, tag):
    """``matrix_norm`` of one matrix, as it was before stacks."""
    if tag == "sup":
        return float(np.max(np.sum(np.abs(a), axis=1)))
    return float(np.linalg.norm(a, 2))


def ref_power_bound(op, horizon):
    norms = np.empty(horizon)
    p = op.entries.copy()
    for n in range(horizon):
        if n:
            p = op.entries @ p
        norms[n] = _norm(p, op.norm_tag)
    return float(norms.max())


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


def ref_group_bound_two_loops(r, tag, group_horizon):
    """``rev_power_bound`` as it was before one stack held both directions:
    a ``cur = g @ cur`` loop from ``g @ I`` for g = r and for g = r^-1, and
    the maximum of each loop's full stack of norms."""
    worst = 1.0
    for g in (r, np.linalg.inv(r)):
        cur = g @ np.eye(r.shape[0], dtype=np.complex128)
        powers = [cur]
        for _ in range(group_horizon - 1):
            cur = g @ cur
            powers.append(cur)
        worst = max(worst, matrix_norm(np.stack(powers), tag).max())
    return float(worst)


def with_reversible_dim(rng, k, tag="euclidean"):
    """A random power-bounded 10 x 10 matrix with exactly k unimodular eigenvalues."""
    while True:
        op, eigs, _ = random_power_bounded(rng, dim=10, norm_tag=tag, max_uni=k)
        if np.count_nonzero(np.abs(np.abs(eigs) - 1) < 1e-12) == k:
            return op


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
        assert same_bits(power_bound_estimate(op, 57), ref_power_bound(op, 57))


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
@pytest.mark.parametrize("k", [1, 2, 3])
def test_rev_power_bound_equals_two_loops_and_full_stack(rng, tag, k):
    for _ in range(3):
        split = jdlg_split(with_reversible_dim(rng, k, tag))
        assert len(split.rev_basis) == k
        want = ref_group_bound_two_loops(split.rev_action.entries, tag, 1000)
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


def ref_powers(a, start, count):
    """``start, a start, a^2 start, ...`` as a plain loop forms them."""
    out, cur = [], start
    for k in range(count):
        if k:
            cur = a @ cur
        out.append(cur)
    return np.array(out, dtype=np.complex128)


@pytest.mark.parametrize("terms", [None, 1, 3], ids=["default-chunk", "one-term", "three-terms"])
def test_power_chunks_in_place_match_loop(rng, monkeypatch, terms):
    a = random_power_bounded(rng, dim=7)[0].entries
    z = signed_zeros("euclidean").entries
    cases = [(a, a), (a, a.T), (a.T, a), (a, vector_with_zeros(7, "sup").coords),
             (a, rng.standard_normal(7) + 1j * rng.standard_normal(7)),
             (z, z), (z, z.T), (z, np.eye(4, dtype=np.complex128)),
             (a[:1, :1], a[:1, :1]), (a[:2, :2], a[:2, 1:3])]
    for mat, start in cases:
        if terms is not None:
            monkeypatch.setattr(operators, "POWER_CHUNK_ENTRIES", terms * start.size)
        chunks = list(operators.power_chunks(mat, start, 20))
        assert len(chunks) == (1 if terms is None else -(-20 // terms))
        assert same_bits(np.concatenate(chunks), ref_powers(mat, start, 20))


@TAGS
def test_ktz_past_the_cesaro_stack_matches_loop(rng, chunk, tag, monkeypatch):
    # horizon 300 runs past the 255 powers of the Cesaro stack; the decay
    # curve, the limit defect and the decomposition all come from one stack
    made, seen = [], []

    def own_stack(*args):
        made.append(args)
        return operators.power_chunks(*args)

    def decomposition(*args):
        seen.append(ergodic._mean_ergodic_projection(*args))
        return seen[-1]

    monkeypatch.setattr(ergodic, "power_chunks", own_stack)
    monkeypatch.setattr(jdlg, "_mean_ergodic_projection", decomposition)
    only_one, _ = batteries(rng, tag)
    for op in only_one:
        rep = ktz_check(op, horizon=300)
        curve, defect = ref_ktz(op, 300, rep.limit_projection.entries)
        assert same_bits(rep.decay_curve, curve)
        assert same_bits(rep.limit_defect, defect)
        assert not made  # the projection formed no stack of its own
        alone = mean_ergodic_projection(op, 1e-9)
        assert same_bits(seen[-1].cesaro_constant, alone.cesaro_constant)
        assert all(same_bits(seen[-1].convergence_samples[k], alone.convergence_samples[k])
                   for k in alone.convergence_samples)
        made.clear()


def _stacks(draw_kind, rng, dim, count):
    """A stack of ``count`` complex dim x dim matrices of the drawn kind; the
    reversible kind is ``25 count`` powers of a k x k matrix ``V D V^-1``, D
    unimodular, k = 2 or 3 by the parity of ``dim``."""
    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if draw_kind == "random":
        return gaussian(count, dim, dim)
    if draw_kind == "rank-one":  # Frobenius and 2-norm tie
        u, v = gaussian(count, dim, 1), gaussian(count, 1, dim)
        return (u @ v) * rng.uniform(0.5, 1.0, (count, 1, 1))
    if draw_kind == "unit-rank-one":  # every norm 1 up to rounding, in either order
        u, v = gaussian(count, dim, 1), gaussian(count, 1, dim)
        return (u / np.linalg.norm(u, axis=1, keepdims=True)) @ \
            (v / np.linalg.norm(v, axis=2, keepdims=True))
    if draw_kind == "repeated":
        return np.repeat(gaussian(1, dim, dim), count, axis=0)
    if draw_kind == "reversible":  # a group check's stack, which the Frobenius order cannot prune
        k = 2 + dim % 2
        v = gaussian(k, k)
        a = v @ np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, k))) @ np.linalg.inv(v)
        return np.concatenate(list(operators.power_chunks(a, a, 25 * count)))
    a = random_power_bounded(rng, dim=dim, max_uni=min(3, dim))[0].entries
    return np.concatenate(list(operators.power_chunks(a, a, count)))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["random", "rank-one", "unit-rank-one", "repeated", "powers",
                             "reversible"]),
       seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 10),
       count=st.integers(1, 80), scale=st.sampled_from([1.0, 1e-170, 1e150, 1e160]))
def test_max_matrix_norm_equals_full_stack_maximum(kind, seed, dim, count, scale):
    stack = _stacks(kind, np.random.default_rng(seed), dim, count) * scale
    for tag in ("euclidean", "sup"):
        assert same_bits(max_matrix_norm(stack, tag), float(matrix_norm(stack, tag).max()))


def test_mean_ergodic_bound_takes_one_block_of_svds(rng, monkeypatch):
    # a deterministic work count: the matrices whose 2-norm SVD M reads, in
    # one mean_ergodic_projection call (the full stack a^1 .. a^200 is 200)
    svds, full = [], operators.matrix_norm

    def counted(a, tag):
        svds.append(len(a))
        return full(a, tag)

    monkeypatch.setattr(operators, "matrix_norm", counted)
    dec = mean_ergodic_projection(random_power_bounded(rng, dim=10)[0])
    assert sum(svds) == 8
    assert dec.cesaro_constant > 0


@pytest.mark.parametrize("k", [2, 3])
def test_group_check_takes_few_svds(rng, monkeypatch, k):
    # a deterministic work count: the matrices of r^1 .. r^1000 and r^-1 ..
    # r^-1000 whose 2-norm SVD rev_power_bound reads (the full stacks are 2000)
    svds, full = [], operators.matrix_norm

    def counted(a, tag):
        svds.append(len(a))
        return full(a, tag)

    monkeypatch.setattr(operators, "matrix_norm", counted)
    for _ in range(5):
        svds.clear()
        split = jdlg_split(with_reversible_dim(rng, k))
        assert len(split.rev_basis) == k
        assert 8 <= sum(svds) <= 32
