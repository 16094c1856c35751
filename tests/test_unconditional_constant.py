"""The certified unconditional constant of a vector series.

``gallery.unconditional_constant`` bounds every subset sum of a series at
once, from one certified scan of ``sum_j |x_j(k)|``.  Over one to six
entries, mixing eventually constant prefix vectors with ladder entries
``x - T^d x`` of harmonic isometries, it must lie above the brute-force
maximum over all subsets, within pi times that maximum, equal the closed
form on prefix vectors, and carry a sound certificate.
"""

import math
from itertools import combinations

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import validate_certificate
from orbitlab.gallery import _modulus_sum, unconditional_constant
from orbitlab.operators import DiagonalOperator, harmonic_symbol, power_apply
from orbitlab.seqspace import constant_one, from_prefix, lin_comb, sup_norm

TOL = 1e-8

_coord = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
_complex = st.builds(complex, _coord, _coord)
_prefix = st.builds(from_prefix, st.lists(_complex, min_size=1, max_size=8), _complex)


@st.composite
def _ladder_entry(draw):
    op = DiagonalOperator(harmonic_symbol(draw(st.sampled_from([1.0, 1.7]))), "c")
    x = draw(st.one_of(st.just(constant_one()), _prefix))
    d = draw(st.integers(1, 50))
    return lin_comb([1.0, -1.0], [x, power_apply(op, d, x)])


_series = st.lists(st.one_of(_prefix, _ladder_entry()), min_size=1, max_size=6)


def _subset_norms(vectors):
    """Certified ``(value, error_bound)`` of every nonempty subset sum."""
    return [sup_norm(lin_comb([1.0] * size, list(subset)), TOL)
            for size in range(1, len(vectors) + 1)
            for subset in combinations(vectors, size)]


@settings(max_examples=40, deadline=None)
@given(_series)
def test_constant_bounds_every_subset_within_pi(vectors):
    constant = unconditional_constant(vectors, TOL)
    norms = _subset_norms(vectors)
    assert max(val + err for val, err in norms) <= constant + TOL
    assert constant <= math.pi * max(val for val, _ in norms) + (math.pi + 1) * TOL


@settings(max_examples=60, deadline=None)
@given(st.lists(_prefix, min_size=1, max_size=6))
def test_constant_of_prefix_vectors_is_the_modulus_sum(vectors):
    ks = np.arange(1, 10)
    head = np.sum([np.abs(v.coords(ks)) for v in vectors], axis=0).max()
    want = max(head, sum(abs(v.limit) for v in vectors))
    assert abs(unconditional_constant(vectors, TOL) - want) <= TOL


@settings(max_examples=40, deadline=None)
@given(_series)
def test_modulus_sum_certificate_is_sound(vectors):
    assert validate_certificate(_modulus_sum(vectors), samples=2000) <= 0.0
