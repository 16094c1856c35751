"""The scalar case of the certificate algebra is one element of it.

Each rule in ``seqspace`` (the weighted tail combination, the tail bound,
the power, ``apply`` and ``lin_comb`` steps) takes scalars or arrays over a
batch of vectors.  One array call must equal the scalar calls on each
element, bit for bit, including the term by term sums of eight and more
terms, where a numpy reduction over the terms would start summing pairwise.
"""

import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitlab.operators import DiagonalOperator, power_apply, root_perturbed_symbol
from orbitlab.seqspace import (Certificate, TailCertificate, apply_certificate,
                               combine_tails, from_prefix, lin_comb,
                               lin_comb_certificate, power_tail, tail_bound)

_Vector = namedtuple("_Vector", "limit tail majorant")  # the fields the rules read
_SIZE = st.integers(1, 5)  # vectors per batch
_WEIGHTS = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 4.0))
_CONSTANTS = st.one_of(st.just(0.0), st.floats(0.0, 4.0))
_EXPONENTS = st.one_of(st.just(0.0), st.floats(-3.0, 0.0), st.floats(0.0, 3.0))
_STARTS = st.one_of(st.sampled_from([0, 64, 65]), st.integers(0, 200))
_LIMITS = st.one_of(st.sampled_from([0j, 1 + 0j, 0.6 - 0.8j]),
                    st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                       allow_infinity=False))
_COEFFS = st.one_of(st.sampled_from([0j, 1 + 0j, -1 + 0j]),
                    st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                       allow_infinity=False))


def _bits(values):
    """uint64 bits of floats, of complex parts and of ints, flattened."""
    out = []
    for x in values:
        a = np.asarray(x)
        if a.dtype.kind == "c":
            a = np.stack([a.real, a.imag], axis=-1)
        out.append(np.ascontiguousarray(a, dtype=np.int64 if a.dtype.kind in "iub"
                                        else np.float64).view(np.uint64).ravel())
    return np.concatenate(out).tolist()


def _flat(cert: Certificate) -> list:
    return [cert.limit, *cert.tail, cert.majorant, cert.abs_limit]


def _column(fields, size):
    """Fields broadcast over a batch of ``size``."""
    return [np.broadcast_to(np.asarray(f), (size,)) for f in fields]


def _element(vector, i):
    """Element i of an array vector certificate as plain Python numbers."""
    limit, (c, e, a), m = vector
    return _Vector(complex(limit[i]), (float(c[i]), float(e[i]), int(a[i])), float(m[i]))


@st.composite
def _batches(draw, min_terms=1, max_terms=12):
    """``size`` vectors' certificates and weights for 1-12 terms, as arrays."""
    size = draw(_SIZE, label="size")
    terms = draw(st.integers(min_terms, max_terms), label="terms")

    def column(strategy, dtype):
        return np.array([draw(strategy) for _ in range(size)], dtype=dtype)

    return size, [(column(_WEIGHTS, float),
                   _Vector(column(_LIMITS, complex),
                               (column(_CONSTANTS, float), column(_EXPONENTS, float),
                                column(_STARTS, np.int64)),
                               column(st.floats(0.0, 4.0), float)))
                  for _ in range(terms)]


@pytest.mark.parametrize("min_terms", [1, 8])
@settings(max_examples=100, deadline=None)
@given(coeffs=st.data())
def test_one_array_call_equals_the_scalar_calls(min_terms, coeffs):
    size, terms = coeffs.draw(_batches(min_terms), label="batch")
    weights = [w for w, _ in terms]
    certs = [cert for _, cert in terms]
    cs = [coeffs.draw(_COEFFS, label="coefficient") for _ in terms]
    n = np.array([coeffs.draw(st.integers(0, 10**5), label="n") for _ in range(size)])
    a = np.array([coeffs.draw(_LIMITS, label="multiplier") for _ in range(size)])

    tails = combine_tails([(w, cert.tail) for w, cert in terms])
    rows = {
        "combine": _column(tails, size),
        "bound": _column([tail_bound(*tails, 64)], size),
        "power": _column(power_tail(n, certs[0].tail), size),
        "apply": _column(_flat(apply_certificate(a, power_tail(n, certs[0].tail), certs[-1])),
                         size),
        "lin_comb": _column(_flat(lin_comb_certificate(cs, certs)), size),
    }
    for i in range(size):
        one = [_element(cert, i) for cert in certs]
        tail = combine_tails([(float(w[i]), cert.tail) for w, cert in zip(weights, one)])
        power = power_tail(int(n[i]), one[0].tail)
        want = {
            "combine": tail,
            "bound": [tail_bound(*tail, 64)],
            "power": power,
            "apply": _flat(apply_certificate(complex(a[i]), power, one[-1])),
            "lin_comb": _flat(lin_comb_certificate(cs, one)),
        }
        for name, fields in want.items():
            got = [f[i] for f in rows[name]]
            assert _bits(got) == _bits(fields), (name, i, got, fields)


def test_a_twelve_term_subset_sum_keeps_its_bits():
    # a subset sum of twelve ladder rungs, each (T^A - T^B) y with its own
    # tail; its constant and majorant sums differ from numpy's pairwise sum
    op = DiagonalOperator(root_perturbed_symbol(3, 0.7), "c")

    def rung(j):
        y = from_prefix([0.1 * j + 1 / (j + 45), -0.3j],
                        complex(math.cos(45 * j), math.sin(45 * j)) / 3,
                        tail=TailCertificate(0.1 + j / 45, 0.5 + j / 10))
        return lin_comb([1.0, -1.0], [power_apply(op, 3 * j + 5, y), power_apply(op, j + 1, y)])

    ladder = [rung(j) for j in range(12)]
    v = lin_comb([1.0] * 12, ladder)
    fields = [v.limit.real, v.limit.imag, v.tail.constant, v.tail.exponent, v.majorant]
    assert [hex(b) for b in np.array(fields).view(np.uint64).tolist()] == [
        "0x3fc572fab70dedfa", "0x3fb036ecfb249970", "0x407653113f10fcca",
        "0x3fe0000000000000", "0x402df1ab6de0f19d"]
    assert v.tail.after == 0
    pairwise = np.add.reduce([r.tail.constant for r in ladder])
    assert pairwise != v.tail.constant  # the pin tells the two summation orders apart
