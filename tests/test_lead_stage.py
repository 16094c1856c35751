"""Heads in two stages: the lead coordinates first, the rest on demand.

``PhaseRange`` forms the lead coordinates k = 1 .. ``_LEAD`` of every head
row and the other first-block coordinates only for the rows a caller
completes.  A completed head must equal the 64-coordinate head bit for
bit, a lead above a threshold must prove the head above it, and every
decision a cloud reads from lead and completed heads must equal the
decision read from whole heads, at lead widths 1, 4, 63 and 64 and at
every block size.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import power_difference_rows
from orbitlab import operators
from orbitlab.operators import (DiagonalOperator, constant_symbol, difference_certificates,
                                harmonic_symbol, root_perturbed_symbol)
from orbitlab.orbits import orbit
from orbitlab.seqspace import basis_vector, constant_one, exceeds_exit, from_prefix

_HEAD = np.arange(1, 65)
_LEADS = [1, 4, 63, 64]
_BLOCKS = [1, 7, 1024]
_SYMBOLS = st.one_of(
    st.builds(harmonic_symbol, st.floats(0.5, 2.0)),
    st.builds(root_perturbed_symbol, st.integers(2, 5), st.floats(0.5, 2.0)),
    st.builds(constant_symbol, st.floats(0.0, 6.3)))
_SMALL = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
_PROBES = st.one_of(
    st.just(constant_one()),
    st.builds(basis_vector, st.integers(1, 80), st.just("c")),
    st.builds(from_prefix, st.lists(_SMALL, min_size=1, max_size=6), _SMALL))


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _operator(sym, lead, block):
    """A fresh operator whose phase range is built at these widths: a range
    reads them once, when it is built."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_LEAD", lead)
        mp.setattr(operators, "_SCREEN_BLOCK", block)
        op = DiagonalOperator(sym, "c")
        assert (op.phase_range.lead, op.phase_range.block) == (lead, block)
        return op


def _full_heads(op, ns, y):
    """The 64-coordinate head maxima of ``(T^n - I) y``, formed apart from
    any PhaseRange."""
    return np.abs(power_difference_rows(op, ns, 0, y, _HEAD)).max(axis=1)


def _around(values, data, label):
    """A modulus drawn from ``values`` and one ulp either side, above 0."""
    r = float(data.draw(st.sampled_from(sorted(set(values.tolist()))), label=label))
    out = [float(e) for e in (np.nextafter(r, -np.inf), r, np.nextafter(r, np.inf)) if e > 0]
    assume(out)
    return out


@pytest.mark.parametrize("block", _BLOCKS)
@pytest.mark.parametrize("lead", _LEADS)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(sym=_SYMBOLS, x=_PROBES, data=st.data())
def test_completed_heads_equal_full_heads(lead, block, sym, x, data):
    op = _operator(sym, lead, block)
    ph = op.phase_range
    assert ph.range(1, 1).shape == (1, lead)
    lo = 1 + block * data.draw(st.integers(0, 40), label="block index")
    count = data.draw(st.integers(1, min(block, 40)), label="count")
    ns = np.arange(lo, lo + count)
    terms = ph.terms(x)
    leads = ph.lead_maxima(lo, count, terms)
    full = _full_heads(op, ns, x)
    assert np.array_equal(_bits(ph.complete(leads, ns, terms)), _bits(full))
    for i in range(ns.size):  # one row at a time, as a single distance completes it
        assert _bits(ph.complete(leads[i:i + 1], ns[i:i + 1], terms)) == _bits(full[i])
    # a lead above a threshold proves the whole head above it
    moduli = np.abs(power_difference_rows(op, ns, 0, x, _HEAD[:lead])).ravel()
    for thr in _around(np.concatenate([moduli, full]), data, "threshold"):
        assert (full[leads > thr] > thr).all()


@pytest.mark.parametrize("block", _BLOCKS)
@pytest.mark.parametrize("lead", _LEADS)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(sym=_SYMBOLS, x=_PROBES, data=st.data())
def test_cloud_states_equal_full_head_states(lead, block, sym, x, data):
    op = _operator(sym, lead, block)
    h = data.draw(st.integers(2, 200), label="horizon")
    tol = data.draw(st.sampled_from([1e-8, 1e-3]), label="tol")
    cloud = orbit(op, x, h, tol=tol)
    ds = np.arange(1, h)
    full = _full_heads(op, ds, x)
    leads = np.abs(power_difference_rows(op, ds, 0, x, _HEAD[:lead])).max(axis=1)
    certs = difference_certificates(op, ds, x)
    # several thresholds on one cloud, so a later one may complete heads
    # an earlier one proved from their lead
    for eps in _around(np.concatenate([full, leads]), data, "head or lead modulus"):
        want = exceeds_exit(full, *certs, eps, tol)
        assert np.array_equal(cloud.states(eps, h - 1)[1:], want)
    whole = cloud._whole[1:]
    assert np.array_equal(_bits(cloud._brackets[0, 1:][whole]), _bits(full[whole]))
    assert (cloud._brackets[0, 1:][~whole] <= full[~whole]).all()
