"""One phase range per exponent block, and both first-block exits.

``PhaseRange`` holds the lead phases of ``T^n`` for a block of exponents;
a diagonal cloud forms the lead coordinates of ``(T^n - I) y`` from them
and the rest of the first block for the rows it completes, both by
``operators.difference_coords``.  Every head row, lead and rest side by
side, must equal the rows of ``power_difference_rows`` and of the closure
vectors bit for bit, whatever the number of rows and however the range
was filled, and so must the cloud's lead and completed head maxima, up to
h = 2000.  A cached head maximum stands in for the first block of
``norm_exceeds``, so every decision taken from it must equal the full
scan's, at thresholds on a head modulus and one ulp either side, at the
majorant, and at a tolerance wide enough to force the straddle exit.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import power_difference_rows
from orbitlab import operators
from orbitlab.operators import (DiagonalOperator, PhaseRange, constant_symbol, difference,
                                difference_coords, harmonic_symbol, power_apply,
                                root_perturbed_symbol)
from orbitlab.orbits import orbit
from orbitlab.seqspace import (basis_vector, constant_one, from_prefix, lin_comb,
                               norm_exceeds)

_HEAD = np.arange(1, 65)
_SYMBOLS = st.one_of(
    st.builds(harmonic_symbol, st.floats(0.5, 2.0)),
    st.builds(root_perturbed_symbol, st.integers(2, 5), st.floats(0.5, 2.0)),
    st.builds(constant_symbol, st.floats(0.0, 6.3)))
_SMALL = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
_PROBES = st.one_of(
    st.just(constant_one()),
    st.builds(basis_vector, st.integers(1, 80), st.just("c")),
    st.builds(from_prefix, st.lists(_SMALL, min_size=1, max_size=64), _SMALL))
_BLOCKS = [1, 7, 1024]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _closure_rows(op, ns, y):
    return np.array([lin_comb([1.0, -1.0], [power_apply(op, n, y), y]).coords(_HEAD)
                     for n in ns])


def _range_rows(op, y, lo, count):
    """Head rows of ``(T^n - I) y`` for ``n = lo .. lo + count - 1`` as a
    cloud forms them: the lead columns from the range's phases, the rest
    from the exponents."""
    ph, ns, yk = op.phase_range, np.arange(lo, lo + count).reshape(-1, 1), y.coords(_HEAD)
    lead, rest = slice(ph.lead), slice(ph.lead, None)
    return np.hstack([
        difference_coords(op.symbol, ns, 0, yk[lead], _HEAD[lead], ph.range(lo, count)),
        difference_coords(op.symbol, ns, 0, yk[rest], _HEAD[rest])])


@pytest.mark.parametrize("block", _BLOCKS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(sym=_SYMBOLS, x=_PROBES, data=st.data())
def test_rows_equal_difference_rows_and_closures(block, sym, x, data):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_SCREEN_BLOCK", block)
        op = DiagonalOperator(sym, "c")
        assert op.phase_range.block == block  # built at this block
    ph = op.phase_range
    # a logged product (T^a - T^b) x, as a witness product cloud holds it
    a, b = data.draw(st.integers(0, 30), label="a"), data.draw(st.integers(0, 30), label="b")
    y = data.draw(st.sampled_from([x, lin_comb([1.0, -1.0], [power_apply(op, a, x),
                                                           power_apply(op, b, x)])]),
                  label="y")
    for _ in range(3):
        lo = 1 + block * data.draw(st.integers(0, 40), label="block index")
        count = data.draw(st.integers(1, block), label="count")
        # fill part of the range first, so the read below extends it
        ph.range(lo, data.draw(st.integers(1, count), label="first fill"))
        ns = np.arange(lo, lo + count)
        got = _range_rows(op, y, lo, count)
        assert np.array_equal(_bits(got), _bits(power_difference_rows(op, ns, 0, y, _HEAD)))
        assert np.array_equal(_bits(got), _bits(_closure_rows(op, ns.tolist(), y)))
        cloud = orbit(op, y, lo + count)
        lead = cloud._lead_maxima(lo, count)
        assert np.array_equal(lead, np.abs(got[:, :operators._LEAD]).max(axis=1))
        assert np.array_equal(_bits(cloud._completed(lead, ns)),
                              _bits(np.abs(got).max(axis=1)))


@pytest.mark.parametrize("probe", ["prefix-40", "product-one"])
def test_cloud_heads_equal_the_difference_vectors_to_h_2000(probe):
    # every head maximum a cloud caches is the maximum of its difference
    # vector's first 64 coordinates, at every alignment of every block
    op = DiagonalOperator(harmonic_symbol(1.0), "c")
    if probe == "prefix-40":
        rng = np.random.default_rng(40)
        x = from_prefix(rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40), 0.3 + 0.4j)
    else:
        one = constant_one()
        x = difference(power_apply(op, 3, one), power_apply(op, 1, one))
    h = 2000
    cloud = orbit(op, x, h)
    heads = cloud.complete(np.arange(1, h))[0, 1:]
    want = [np.abs(difference(power_apply(op, d, x), x).coords(_HEAD)).max() for d in range(1, h)]
    assert np.array_equal(_bits(heads), _bits(np.array(want)))


@pytest.mark.parametrize("sym", [root_perturbed_symbol(2), harmonic_symbol(1.3).power(3),
                                 root_perturbed_symbol(3, 0.7).power(3),
                                 constant_symbol(2.0).power(3)],
                         ids=["root-2", "harmonic-cubed", "root-3-cubed", "constant-cubed"])
@pytest.mark.parametrize("x", [constant_one(), basis_vector(1),
                               from_prefix([0.5, -0.25j, 0.75], 0.6 - 0.8j)],
                         ids=["one", "e1", "prefix"])
def test_rows_of_powers_and_of_the_order_two_root(sym, x, monkeypatch):
    # an operator that is itself a power reads its phases through the same
    # rule as its closure vectors; so does the root whose a_1 is exactly 1
    monkeypatch.setattr(operators, "_SCREEN_BLOCK", 7)
    op = DiagonalOperator(sym, "c")
    for lo, count in ((1, 7), (8, 3), (1 + 7 * 140, 7)):
        ns = np.arange(lo, lo + count)
        got = _range_rows(op, x, lo, count)
        assert np.array_equal(_bits(got), _bits(power_difference_rows(op, ns, 0, x, _HEAD)))
        assert np.array_equal(_bits(got), _bits(_closure_rows(op, ns.tolist(), x)))


def test_range_is_bounded_by_its_block(monkeypatch):
    monkeypatch.setattr(operators, "_SCREEN_BLOCK", 7)
    ph = PhaseRange(DiagonalOperator(harmonic_symbol(), "c"))
    assert ph.range(1, 7).shape == (7, 4)  # the lead coordinates only
    for count in (0, 8):
        with pytest.raises(ValueError):
            ph.range(1, count)
    monkeypatch.undo()
    full = PhaseRange(DiagonalOperator(harmonic_symbol(), "c"))
    assert full.range(1, 1024).nbytes == 1024 * 4 * 16  # 64 KB at the default block


def _thresholds(head, majorant, data):
    """Thresholds that meet the first block's own bracket: a head modulus
    and one ulp either side, and the majorant and one ulp either side."""
    r = float(data.draw(st.sampled_from(sorted(set(head.tolist()))), label="modulus"))
    out = [np.nextafter(r, -np.inf), r, np.nextafter(r, np.inf)]
    if math.isfinite(majorant):
        out += [np.nextafter(majorant, -np.inf), majorant, np.nextafter(majorant, np.inf)]
    out = [float(e) for e in out if e > 1e-6]
    assume(out)
    return out


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sym=_SYMBOLS, x=_PROBES, data=st.data())
def test_head_max_decisions_equal_the_full_scan(sym, x, data):
    op = DiagonalOperator(sym, "c")
    d = data.draw(st.integers(1, 3000), label="d")
    v = lin_comb([1.0, -1.0], [power_apply(op, d, x), x])
    if data.draw(st.booleans(), label="uncapped"):
        v = dataclasses.replace(v, majorant=math.inf)
    head = np.abs(v.coords(_HEAD))
    for eps in _thresholds(head, v.majorant, data):
        # tol 1e-8, and one wide enough that the bracket straddles and closes
        for tol in (1e-8, eps / 4.5):
            want = norm_exceeds(v, eps, tol)
            assert norm_exceeds(v, eps, tol, head_max=float(head.max())) == want


@pytest.mark.parametrize("block", _BLOCKS)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(sym=_SYMBOLS, x=_PROBES, data=st.data())
def test_cloud_decisions_equal_norm_exceeds(block, sym, x, data):
    op = DiagonalOperator(sym, "c")
    h = data.draw(st.integers(2, 200), label="horizon")
    d = data.draw(st.integers(1, h - 1), label="d")
    v = lin_comb([1.0, -1.0], [power_apply(op, d, x), x])
    head = np.abs(v.coords(_HEAD))
    for eps in _thresholds(head, v.majorant, data):
        for tol in (1e-8, eps / 4.5):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(operators, "_SCREEN_BLOCK", block)
                # a fresh operator, so its phase range is built at this block
                cloud = orbit(DiagonalOperator(sym, "c"), x, h, tol=tol)
            # screen the whole cloud first, or decide d cold
            if data.draw(st.booleans(), label="screen first"):
                cloud.states(eps, h - 1)
            assert cloud.separated(1 + d, 1, eps) == norm_exceeds(v, eps, tol)
            assert cloud.separated(1, 1 + d, eps) == norm_exceeds(v, eps, tol)


def test_head_max_needs_the_whole_first_block():
    with pytest.raises(ValueError):
        norm_exceeds(constant_one(), 0.5, 1e-8, max_terms=32, head_max=1.0)
