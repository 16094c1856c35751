import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitlab.errors import SpaceTagError, UnreachableToleranceError
from orbitlab.seqspace import (FiniteVector, SeqVector, TailCertificate,
                               basis_vector, constant_one, distance,
                               from_prefix, lin_comb, norm_exceeds, sup_norm,
                               validate_certificate, zero_vector)


def harmonic_difference():
    """coord(k) = 1 - e^{i pi / k}, limit 0, |coord| <= pi/k."""
    def coord(ks):
        return 1.0 - np.exp(1j * np.pi / np.asarray(ks, dtype=float))
    return SeqVector(coord, 0.0, TailCertificate(np.pi, 1.0), "c")


class TestSupNorm:
    def test_constant_one(self):
        val, err = sup_norm(constant_one(), 1e-8)
        assert val == 1.0 and err <= 1e-8

    def test_zero(self):
        val, err = sup_norm(zero_vector(), 1e-8)
        assert val == 0.0 and err == 0.0

    def test_harmonic_difference_attains_two(self):
        # |1 - e^{i pi / k}| = 2 sin(pi / 2k) is maximal at k = 1 where it
        # equals 2; the oracle value was computed from that closed form
        val, err = sup_norm(harmonic_difference(), 1e-8)
        assert abs(val - 2.0) <= 1e-12
        assert err <= 1e-8

    def test_unreachable_tolerance(self):
        v = SeqVector(lambda ks: np.exp(1j / np.asarray(ks, dtype=float)),
                      1.0, TailCertificate(0.5, 0.0), "c")
        with pytest.raises(UnreachableToleranceError):
            sup_norm(v, 1e-6, max_terms=1 << 12)

    def test_flat_certificate_below_tol_is_fine(self):
        v = SeqVector(lambda ks: np.ones(np.shape(ks), dtype=complex),
                      1.0, TailCertificate(1e-9, 0.0), "c")
        val, err = sup_norm(v, 1e-6)
        assert abs(val - 1.0) <= 1e-12 and err <= 1e-6

    def test_brute_force_agreement(self):
        # certificate localises the sup below 1e6; compare with brute force
        def coord(ks):
            ks = np.asarray(ks, dtype=float)
            return (2.0 / ks) * np.exp(1j * np.pi / ks)
        v = SeqVector(coord, 0.0, TailCertificate(2.0, 1.0), "c")
        val, err = sup_norm(v, 1e-6)
        brute = 0.0
        for lo in range(1, 1_000_001, 250_000):
            ks = np.arange(lo, min(lo + 250_000, 1_000_001))
            brute = max(brute, float(np.max(np.abs(coord(ks)))))
        assert abs(val - brute) <= err + 1e-12


class TestLinComb:
    def test_cancellation(self):
        # the combined certificate still carries 2 pi / K, so the norm of the
        # exact-zero combination certifies to tol but not to machine zero
        v = harmonic_difference()
        z = lin_comb([1.0, -1.0], [v, v])
        val, err = sup_norm(z, 1e-6)
        assert val == 0.0 and err <= 1e-6 and z.limit == 0

    def test_one_minus_symbol(self):
        one = constant_one()
        a = SeqVector(lambda ks: np.exp(1j * np.pi / np.asarray(ks, dtype=float)),
                      1.0, TailCertificate(np.pi, 1.0), "c")
        w = lin_comb([1.0, -1.0], [one, a])
        assert w.limit == 0
        assert abs(w.coord_scalar(1) - 2.0) < 1e-15
        val, _ = sup_norm(w, 1e-8)
        assert abs(val - 2.0) <= 1e-9

    def test_scalar_zero(self):
        v = harmonic_difference()
        z = lin_comb([0.0], [v])
        assert sup_norm(z, 1e-12).value == 0.0

    def test_tag_mismatch(self):
        with pytest.raises(SpaceTagError):
            lin_comb([1.0, 1.0], [constant_one("c"), basis_vector(1, "c0")])

    def test_zero_vector_does_not_degrade_exponent(self):
        v = harmonic_difference()
        z = zero_vector("c")
        w = lin_comb([1.0, 1.0], [v, z])
        assert w.tail.exponent == v.tail.exponent


class TestDistance:
    def test_self_distance(self):
        v = harmonic_difference()
        assert distance(v, v, 1e-6).value == 0.0

    def test_symbol_powers(self):
        # sup_k |e^{i n pi/k} - e^{i m pi/k}| = 2, attained at k = |n - m|
        def orbit_point(n):
            return SeqVector(
                lambda ks, _n=n: np.exp(1j * _n * np.pi / np.asarray(ks, dtype=float)),
                1.0, TailCertificate(n * np.pi, 1.0), "c")
        val, err = distance(orbit_point(1), orbit_point(2), 1e-8)
        assert abs(val - 2.0) <= 1e-12 and err <= 1e-8
        val, err = distance(orbit_point(3), orbit_point(7), 1e-8)
        assert abs(val - 2.0) <= 1e-12

    def test_opposite_basis_vectors(self):
        e1 = basis_vector(1)
        val, _ = distance(e1, lin_comb([-1.0], [e1]), 1e-10)
        assert abs(val - 2.0) <= 1e-12


class TestCertificates:
    def test_invalid_certificate_rejected(self):
        with pytest.raises(ValueError):
            TailCertificate(-1.0, 1.0)

    def test_soundness_sampled(self):
        v = harmonic_difference()
        assert validate_certificate(v, after=16) <= 1e-12

    def test_c0_tag_requires_zero_limit(self):
        with pytest.raises(SpaceTagError):
            SeqVector(lambda ks: np.ones(np.shape(ks), dtype=complex),
                      1.0, TailCertificate.zero(), "c0")

    def test_combined_certificate_stays_sound(self):
        u = harmonic_difference()
        w = lin_comb([2.0, -0.5], [u, u])
        assert validate_certificate(w, after=32) <= 1e-12


class TestSupportCertificates:
    """Finitely supported vectors past the first block: their certificates
    are exact only after their support, so a scan cannot stop before it."""

    def test_basis_vector_past_the_first_block(self):
        e = basis_vector(100, "c")
        assert sup_norm(e, 1e-8) == (1.0, 0.0)
        assert norm_exceeds(e, 0.5, 1e-8)
        assert not norm_exceeds(e, 1.0, 1e-8)

    def test_prefix_past_the_first_block(self):
        assert sup_norm(from_prefix([0] * 70 + [5.0], 0.0), 1e-8) == (5.0, 0.0)

    def test_bound_is_infinite_before_the_support_ends(self):
        t = TailCertificate(2.0, 1.0, 10)
        assert t.bound(9) == np.inf and t.bound(10) == 0.2
        assert np.array_equal(t.bound(np.array([5, 10, 20])), [np.inf, 0.2, 0.1])
        assert t.first_index_below(0.1) == 20 and t.first_index_below(5.0) == 10
        assert TailCertificate.zero(7).bound(7) == 0.0

    def test_combine_takes_the_largest_start(self):
        parts = [(1.0, TailCertificate.zero(100)), (0.5, TailCertificate(2.0, 1.0, 3)),
                 (0.0, TailCertificate.zero(500))]  # a zero weight brings nothing in
        assert TailCertificate.combine(parts) == TailCertificate(1.0, 1.0, 100)
        assert lin_comb([1.0, 2.0], [basis_vector(90, "c"),
                                     from_prefix([1.0] * 120, 0.0)]).tail.after == 120

    @pytest.mark.parametrize("after", [-1, 2.5])
    def test_start_is_validated(self, after):
        with pytest.raises(ValueError):
            TailCertificate(1.0, 1.0, after)

    @pytest.mark.parametrize("v", [basis_vector(100, "c"), from_prefix([0] * 70 + [5.0], 0.0),
                                   lin_comb([1.0, -1.0], [basis_vector(200, "c"),
                                                          from_prefix([0.5] * 90, 0.0)])])
    def test_sound_from_every_start(self, v):
        for after in (1, 16, 64, 99, 100, 300):
            assert validate_certificate(v, after=after, samples=2000) <= 0.0


def test_prefix_majorant_takes_the_limit_as_scans_round_it():
    # np.abs rounds |1.75 + 0.5j| one unit above Python's abs, so a
    # coordinate equal to the limit must not exceed the majorant
    v = from_prefix([0j], 1.75 + 0.5j)
    assert np.abs(np.complex128(v.limit)) > abs(v.limit)
    assert validate_certificate(v) <= 0.0


def _random_vectors(draw, count):
    vs = []
    for _ in range(count):
        n = draw(st.integers(min_value=1, max_value=6))
        vals = [complex(draw(st.floats(-5, 5)), draw(st.floats(-5, 5)))
                for _ in range(n)]
        lim = complex(draw(st.floats(-5, 5)), draw(st.floats(-5, 5)))
        vs.append(from_prefix(vals, lim))
    return vs


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_triangle_inequality(data):
    u, v, w = _random_vectors(data.draw, 3)
    tol = 1e-9
    duw = distance(u, w, tol).value
    duv = distance(u, v, tol).value
    dvw = distance(v, w, tol).value
    assert duw <= duv + dvw + 3 * tol


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_norm_exceeds_consistent_with_sup_norm(data):
    (v,) = _random_vectors(data.draw, 1)
    thr = data.draw(st.floats(0.0, 12.0))
    tol = 1e-9
    val, err = sup_norm(v, tol)
    decided = norm_exceeds(v, thr, tol)
    if val - err > thr + tol:
        assert decided
    if val + err <= thr - tol:
        assert not decided


def test_finite_vector_norms():
    v = FiniteVector(np.array([3.0, -4.0]), "euclidean")
    assert abs(v.norm() - 5.0) < 1e-15
    assert abs(FiniteVector(np.array([3.0, -4.0]), "sup").norm() - 4.0) < 1e-15


def test_finite_vector_rejects_nan():
    with pytest.raises(ValueError):
        FiniteVector(np.array([np.nan, 1.0]))
