import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import commuting_matrix_family
from orbitlab.errors import DimensionMismatchError, EmptyWordError
from orbitlab.operators import (DiagonalOperator, DiagonalSymbol,
                                MatrixOperator, OperatorWord, constant_symbol,
                                harmonic_symbol, power_apply, power_bound_estimate,
                                power_chunks, read_matrix_file, root_perturbed_symbol,
                                telescope_expand, word_matrix,
                                write_matrix_file, _power_angles)
from orbitlab.orbits import orbit
from orbitlab.seqspace import (FiniteVector, basis_vector, constant_one,
                               from_prefix, lin_comb, sup_norm)


def harmonic_op():
    return DiagonalOperator(harmonic_symbol(), "c")


class TestApply:
    def test_on_first_basis_vector(self):
        # theta_1 = pi, so T e_1 = -e_1
        out = harmonic_op().apply(basis_vector(1))
        assert abs(out.coords([1])[0] + 1.0) < 1e-15
        assert abs(out.coords([2])[0]) == 0.0

    def test_identity_symbol(self):
        op = DiagonalOperator(constant_symbol(0.0), "c")
        v = constant_one()
        out = op.apply(v)
        assert sup_norm(lin_comb([1.0, -1.0], [out, v]), 1e-8).value <= 1e-12

    def test_one_by_one_matrix(self):
        # the first point of a 1x1 matrix's orbit is the matrix times the probe
        op = MatrixOperator(np.array([[1j]]), "euclidean")
        out = orbit(op, FiniteVector(np.array([1.0 + 0j])), 1).vector(1)
        assert abs(out.coords[0] - 1j) < 1e-15

    def test_matrix_operator_rejects_bad_entries(self):
        with pytest.raises(DimensionMismatchError):
            MatrixOperator(np.ones((2, 3), dtype=complex))
        with pytest.raises(ValueError):
            MatrixOperator(np.array([[np.inf + 0j]]))
        with pytest.raises(ValueError):
            MatrixOperator(np.eye(2, dtype=complex), "l1")


class TestPowerApply:
    def test_zero_power_is_identity(self):
        v = constant_one()
        assert power_apply(harmonic_op(), 0, v) is v

    def test_angle_doubling(self):
        # theta_2 = pi/2, so T^2 e_2 = e^{i pi} e_2 = -e_2
        out = power_apply(harmonic_op(), 2, basis_vector(2))
        assert abs(out.coords([2])[0] + 1.0) < 1e-14

    def test_matrix_scalar_power(self):
        # matrix powers of a vector come stacked from power_chunks
        a = np.array([[0.5 + 0j]])
        powers = np.concatenate(list(power_chunks(a, np.array([1.0 + 0j]), 11)))
        assert abs(powers[10, 0] - 0.5 ** 10) < 1e-18

    def test_operator_power_matches_power_apply(self):
        op, v = harmonic_op(), from_prefix([0.5, 1j, -2.0], 0.0)
        for n in (1, 3, 7):
            diff = lin_comb([1.0, -1.0], [op.power(n).apply(v), power_apply(op, n, v)])
            assert sup_norm(diff, 1e-10).value <= 1e-10

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            power_apply(harmonic_op(), -1, constant_one())


class TestTelescope:
    def test_single_generator_square(self):
        pairs = telescope_expand([2])
        assert pairs == [(OperatorWord((0,)), 1), (OperatorWord((1,)), 1)]

    def test_two_generators_ones(self):
        pairs = telescope_expand([1, 1])
        assert pairs == [(OperatorWord((0, 0)), 1), (OperatorWord((1, 0)), 2)]

    def test_list_length_is_total_degree(self):
        pairs = telescope_expand([3, 0, 2])
        assert len(pairs) == 5

    def test_empty_word_rejected(self):
        with pytest.raises(EmptyWordError):
            telescope_expand([0, 0])

    def test_matrix_identity_exact(self, rng):
        gens = commuting_matrix_family(rng, dim=8, m=2)
        ks = (3, 2)
        eye = np.eye(8, dtype=np.complex128)
        full = word_matrix(OperatorWord(ks), gens)
        total = np.zeros_like(eye)
        for word, j in telescope_expand(ks):
            w = word_matrix(word, gens)
            total += w @ (eye - gens[j - 1].entries)
        assert np.linalg.norm((eye - full) - total, 2) <= 1e-10

    def test_one_operator_difference_factors(self, rng):
        # I - T^m = (I + T + ... + T^{m-1})(I - T): one generator telescopes
        # into the words T^l, l < m, each times I - T
        t = commuting_matrix_family(rng, dim=6, m=1)[0]
        eye = np.eye(6, dtype=np.complex128)
        for m in range(1, 7):
            pairs = telescope_expand([m])
            assert pairs == [(OperatorWord((l,)), 1) for l in range(m)]
            total = sum(word_matrix(word, [t]) for word, _ in pairs) @ (eye - t.entries)
            full = np.linalg.matrix_power(t.entries, m)
            assert np.linalg.norm((eye - full) - total, 2) <= 1e-10

    def test_word_length_must_match_generators(self, rng):
        gens = commuting_matrix_family(rng, dim=4, m=2)
        with pytest.raises(DimensionMismatchError):
            word_matrix(OperatorWord((1,)), gens)

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            OperatorWord((1, -1))
        with pytest.raises(ValueError):
            telescope_expand([2, -1])


class TestCommutation:
    def test_diagonal_family_commutes(self):
        # the difference is exactly zero; its reported norm is only the
        # certificate resolution of the cancelled tails
        t1, t2 = harmonic_op(), DiagonalOperator(root_perturbed_symbol(2), "c")
        for x in (constant_one(), basis_vector(3)):
            ab, ba = t1.apply(t2.apply(x)), t2.apply(t1.apply(x))
            assert sup_norm(lin_comb([1.0, -1.0], [ab, ba]), 1e-6).value <= 1e-5

    def test_powers_of_one_matrix(self, rng):
        # a word over powers of one matrix is a power of that matrix
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        g /= np.linalg.norm(g, 2)
        gens = [MatrixOperator(g), MatrixOperator(np.linalg.matrix_power(g, 3))]
        for ks in [(1, 0), (0, 1), (2, 1), (1, 2)]:
            want = np.linalg.matrix_power(g, ks[0] + 3 * ks[1])
            assert np.linalg.norm(word_matrix(OperatorWord(ks), gens) - want, 2) <= 1e-12

    def test_commuting_words_ignore_generator_order(self, rng):
        gens = commuting_matrix_family(rng, dim=8, m=3)
        ks = (2, 1, 3)
        one = word_matrix(OperatorWord(ks), gens)
        other = word_matrix(OperatorWord(ks[::-1]), gens[::-1])
        assert np.linalg.norm(one - other, 2) <= 1e-12

    def test_generic_pair_does_not_commute(self):
        # word_matrix multiplies in generator order, and for this pair the
        # order shows
        a = MatrixOperator(np.array([[0, 1], [0, 0]], dtype=complex))
        b = MatrixOperator(np.array([[1, 0], [0, 2]], dtype=complex))
        ab = word_matrix(OperatorWord((1, 1)), [a, b])
        ba = word_matrix(OperatorWord((1, 1)), [b, a])
        assert np.linalg.norm(ab - ba, 2) > 0.1


class TestPowerBound:
    def test_expanding(self):
        op = MatrixOperator(np.array([[2.0 + 0j]]))
        assert power_bound_estimate(op, 30) == pytest.approx(2.0 ** 30)

    def test_single_step_horizon(self):
        op = MatrixOperator(np.array([[0.5 + 0j]]))
        assert power_bound_estimate(op, 1) == pytest.approx(0.5)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 1000), k=st.integers(1, 50))
def test_isometry_on_random_powers(n, k):
    # |sup_norm(T^n e_k)| == 1 within combined error bounds
    op = harmonic_op()
    out = power_apply(op, n, basis_vector(k))
    val, err = sup_norm(out, 1e-9)
    assert abs(val - 1.0) <= err + 1e-11


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 900), m=st.integers(0, 900))
def test_power_composition_coherence(n, m):
    op = harmonic_op()
    v = basis_vector(3)
    once = power_apply(op, n + m, v)
    twice = power_apply(op, n, power_apply(op, m, v))
    assert sup_norm(lin_comb([1.0, -1.0], [once, twice]), 1e-10).value <= 1e-10


def test_telescope_on_probes_battery(rng):
    # random commuting families, m <= 3, exponents <= 5, 20 probes
    for _ in range(8):
        m = int(rng.integers(1, 4))
        gens = commuting_matrix_family(rng, dim=8, m=m)
        ks = tuple(int(rng.integers(0, 6)) for _ in range(m))
        if sum(ks) == 0:
            ks = tuple(1 for _ in range(m))
        pairs = telescope_expand(ks)
        eye = np.eye(8, dtype=np.complex128)
        full = word_matrix(OperatorWord(ks), gens)
        expansion = np.zeros_like(eye)
        for word, j in pairs:
            expansion += word_matrix(word, gens) @ (eye - gens[j - 1].entries)
        for _ in range(20):
            x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            lhs = (eye - full) @ x
            rhs = expansion @ x
            assert np.linalg.norm(lhs - rhs) <= 1e-9


def test_matrix_file_roundtrip(tmp_path, rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    op = MatrixOperator(a, "sup")
    path = tmp_path / "m.txt"
    write_matrix_file(path, op)
    back = read_matrix_file(path, "sup")
    assert np.array_equal(back.entries, op.entries)


def test_matrix_file_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("not_a_number\n")
    with pytest.raises(ValueError):
        read_matrix_file(p)


def test_unimodular_power_has_exact_modulus():
    # angles, not drifting products: |a_k^n| stays exactly 1
    sym = harmonic_symbol().power(12345)
    vals = sym.values(np.arange(1, 2000))
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 5e-16


def test_inverse_symbol_composes_to_identity():
    op = harmonic_op()
    v = basis_vector(5)
    round_trip = op.power(-1).apply(op.apply(v))
    assert sup_norm(lin_comb([1.0, -1.0], [round_trip, v]), 1e-12).value <= 1e-12


@pytest.mark.parametrize("base", [0.0, -0.0])
@pytest.mark.parametrize("n", [np.arange(-70, 1100), np.array([0, 3, -7], dtype=np.int64),
                               np.arange(12).reshape(3, 4), 5, -3, 0])
def test_power_angles_of_zero_base_match_mod(base, n):
    # the zero-base fast path gives np.mod's +0.0 bits, in np.mod's shape and type
    got, want = _power_angles(n, base), np.mod(n * base, 2 * np.pi)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


_CATALOGUE = [harmonic_symbol(), harmonic_symbol(1.7), root_perturbed_symbol(1),
              root_perturbed_symbol(2), root_perturbed_symbol(3, 0.7), constant_symbol(2.0),
              constant_symbol(-1.0), constant_symbol(0.0)]


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("sym", _CATALOGUE)
@pytest.mark.parametrize("a, b", [(3, 5), (5, 3), (-2, 7), (7, -1), (12, 1), (1, 1)])
def test_powers_compose(sym, a, b):
    # the exponent multiplies, so a power of a power is the power of the product
    ks = np.arange(1, 257)
    got, want = sym.power(a).power(b), sym.power(a * b)
    assert got == want and got.exponent == a * b * sym.exponent
    assert np.array_equal(_bits(got.angles(ks)), _bits(want.angles(ks)))
    assert got.limit_angle == want.limit_angle and got.tail == want.tail


def test_power_zero_is_the_identity_constant():
    assert harmonic_symbol().power(3).power(0) == constant_symbol(0.0)


@pytest.mark.parametrize("sym", _CATALOGUE)
def test_angles_are_reduced(sym):
    ks = np.arange(1, 4097)
    for n in (1, 2, -3, 1000):
        ang = sym.power(n).angles(ks)
        assert ((ang >= 0) & (ang < 2 * np.pi)).all()
        assert 0 <= sym.power(n).limit_angle < 2 * np.pi


def test_root_of_order_two_fixes_the_first_coordinate_exactly():
    # theta_1 = pi + pi = 2 pi reduces to 0, for the symbol and every power
    sym = root_perturbed_symbol(2)
    assert sym.unit_fixed_indices == (1,)
    assert sym.values([1])[0] == 1
    for n in range(1, 2001):
        assert sym.power(n).values([1])[0] == 1, n


@pytest.mark.parametrize("rate", [1.0, 2.0, 1.3, 0.737])
def test_root_of_order_one_is_the_harmonic_symbol(rate):
    # the limit angle 2 pi reduces to 0: the limit is 1 and every angle is
    # the harmonic one, bit for bit
    sym, harm = root_perturbed_symbol(1, rate), harmonic_symbol(rate)
    assert sym.limit_value == 1 and sym.unit_fixed_indices == ()
    ks = np.arange(1, 4097)
    assert np.array_equal(sym.angles(ks), harm.angles(ks))
    assert np.array_equal(sym.power(3).angles(ks), harm.power(3).angles(ks))
    assert sym.tail == harm.tail


@pytest.mark.parametrize("kind, params", [
    ("harmonic", (0.0,)), ("harmonic", (-1.0,)), ("harmonic", (float("nan"),)),
    ("harmonic", (float("inf"),)), ("root_perturbed", (0, 1.0)),
    ("root_perturbed", (2.5, 1.0)), ("root_perturbed", (2, 0.0)),
    ("constant", (float("inf"),)), ("constant", (1.0, 2.0)), ("custom", (1.0,)),
    ("harmonic", ())])
def test_symbol_parameters_are_checked_at_construction(kind, params):
    with pytest.raises(ValueError):
        DiagonalSymbol(kind, params)


def test_symbol_exponent_must_be_an_int():
    with pytest.raises(TypeError):
        DiagonalSymbol("harmonic", (1.0,), 1.5)
