"""Heads in two stages: the lead coordinates first, the rest on demand.

``PhaseRange`` forms the lead coordinates k = 1 .. ``_LEAD`` of every head
row and the other first-block coordinates only for the rows a caller
completes.  A completed head must equal the 64-coordinate head bit for
bit, a lead above a threshold must prove the head above it, and every
decision read from lead and completed heads (the cloud's states, the
witness screen) must equal the decision read from whole heads, at lead
widths 1, 4, 63 and 64 and at every screen block.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import power_difference_rows
from orbitlab import gallery, operators
from orbitlab.operators import (DiagonalOperator, PhaseRange, constant_symbol,
                                difference_certificates, harmonic_symbol, power_apply,
                                root_perturbed_symbol)
from orbitlab.orbits import _SEPARATED, orbit
from orbitlab.seqspace import (basis_vector, constant_one, exceeds_exit, from_prefix,
                               lin_comb)

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


def _phase_range(op, lead, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_LEAD", lead)
        mp.setattr(operators, "_SCREEN_BLOCK", block)
        return PhaseRange(op)


def _full_heads(op, ns, t, y):
    """The 64-coordinate head maxima, formed apart from any PhaseRange."""
    return np.abs(power_difference_rows(op, ns, t, y, _HEAD)).max(axis=1)


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
    op = DiagonalOperator(sym, "c")
    ph = _phase_range(op, lead, block)
    assert ph.range(1, 1).shape == (1, lead)
    t = data.draw(st.sampled_from([0, 1]), label="t")
    lo = 1 + block * data.draw(st.integers(0, 40), label="block index")
    count = data.draw(st.integers(1, min(block + 1, 40)), label="count")
    select = data.draw(st.one_of(
        st.none(), st.lists(st.integers(0, count - 1), min_size=1, max_size=count)
        .map(lambda s: np.array(sorted(set(s))))), label="select")
    ns = np.arange(lo, lo + count) if select is None else lo + select
    terms = ph.terms(t, x)
    leads = ph.lead_maxima(lo, count, terms, select)
    full = _full_heads(op, ns, t, x)
    assert np.array_equal(_bits(ph.complete(leads, ns, terms)), _bits(full))
    for i in range(ns.size):  # one row at a time, as a single distance completes it
        assert _bits(ph.complete(leads[i:i + 1], ns[i:i + 1], terms)) == _bits(full[i])
    # a lead above a threshold proves the whole head above it
    moduli = np.abs(power_difference_rows(op, ns, t, x, _HEAD[:lead])).ravel()
    for thr in _around(np.concatenate([moduli, full]), data, "threshold"):
        assert (full[leads > thr] > thr).all()


@pytest.mark.parametrize("block", _BLOCKS)
@pytest.mark.parametrize("lead", _LEADS)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(sym=_SYMBOLS, x=_PROBES, data=st.data())
def test_cloud_states_equal_full_head_states(lead, block, sym, x, data):
    op = DiagonalOperator(sym, "c")
    h = data.draw(st.integers(2, 200), label="horizon")
    tol = data.draw(st.sampled_from([1e-8, 1e-3]), label="tol")
    cloud = orbit(op, x, h, tol=tol, phases=_phase_range(op, lead, block))
    ds = np.arange(1, h)
    full = _full_heads(op, ds, 0, x)
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


@pytest.mark.parametrize("block", _BLOCKS)
@pytest.mark.parametrize("lead", _LEADS)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(sym=_SYMBOLS, x=_PROBES, data=st.data())
def test_screen_equals_the_full_head_screen(lead, block, sym, x, data):
    op = DiagonalOperator(sym, "c")
    ph = _phase_range(op, lead, block)
    h = data.draw(st.integers(2, min(3 * block + 2, 200)), label="horizon")
    cloud = orbit(op, x, h, tol=1e-8, phases=ph)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30))
                               .filter(lambda p: p[0] != p[1]), max_size=3), label="products")
    prod_vecs = [lin_comb([1.0, -1.0], [power_apply(op, a, x), power_apply(op, b, x)])
                 for a, b in pairs]
    lo = 1 + block * data.draw(st.integers(0, (h - 2) // block), label="block index")
    count = min(block, h - lo)
    ds = np.arange(lo, lo + count)
    full = _full_heads(op, ds, 0, x)
    prod_heads = [_full_heads(op, 1 + ds, 1, p) for p in prod_vecs]
    eps = data.draw(st.sampled_from(_around(full, data, "eps")), label="eps pick")
    taus = np.concatenate([full] + prod_heads)
    tau = data.draw(st.sampled_from(_around(taus, data, "tau")), label="tau pick")
    prod_terms = [ph.terms(1, p) for p in prod_vecs]
    separated, rejected = gallery._screen(cloud, ph, prod_terms, lo, count, eps, tau)
    want_sep = exceeds_exit(full, *difference_certificates(op, ds, x), eps, cloud.tol)
    assert np.array_equal(separated, want_sep == _SEPARATED)
    want_rej = np.zeros(count, dtype=bool)
    for heads in prod_heads:
        want_rej |= heads > tau
    assert np.array_equal(rejected, want_rej)
