"""Scans that close at their first block: sup majorants and the head screen.

A majorant M certifies ``|x_k| <= M`` for every k and caps the upper end
of the norm bracket, so a bounded vector's scan can close at its first
block.  The head screen of a diagonal greedy net proves differences
separated from the first block of ``(T^d - I) x``, which is exactly
``norm_exceeds``'s first-block True exit.  These tests check that each
majorant is sound on random expression trees, that capping the bracket
keeps every decision and value the unbounded scan reaches, and that the
screened greedy net equals the per-pair reference net.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import power_difference_rows, ref_net, scan_decisions, validate_certificate
from orbitlab import operators, orbits
from orbitlab.ergodic import cesaro
from orbitlab.errors import SpaceTagError, UnreachableToleranceError
from orbitlab.operators import (DiagonalOperator, constant_symbol, harmonic_symbol,
                                power_apply, root_perturbed_symbol)
from orbitlab.orbits import orbit
from orbitlab.seqspace import (SeqVector, TailCertificate, basis_vector, constant_one,
                               from_prefix, lin_comb, norm_exceeds, sup_norm)

_SYMBOLS = st.one_of(
    st.builds(harmonic_symbol, st.floats(1.0, 2.0)),
    st.builds(root_perturbed_symbol, st.integers(2, 5), st.floats(1.0, 2.0)),
    st.builds(constant_symbol, st.floats(0.0, 6.3)))
_OPS = st.builds(DiagonalOperator, _SYMBOLS)
_SMALL = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
_PROBES = st.one_of(
    st.just(constant_one()),
    st.builds(basis_vector, st.integers(1, 20), st.just("c")),
    st.builds(from_prefix, st.lists(_SMALL, min_size=1, max_size=4), _SMALL))


def _extend(children):
    terms = st.lists(st.tuples(_SMALL, children), min_size=1, max_size=3)
    return st.one_of(
        terms.map(lambda ts: lin_comb([c for c, _ in ts], [v for _, v in ts])),
        st.builds(lambda op, v: op.apply(v), _OPS, children),
        st.builds(power_apply, _OPS, st.integers(0, 50), children),
        st.builds(cesaro, _OPS, children, st.integers(1, 40)))


_TREES = st.recursive(_PROBES, _extend, max_leaves=5)
# log-sampled indices up to 10^6, the first block included
_KS = np.unique(np.concatenate([np.arange(1, 65),
                                np.logspace(0, 6, 400).astype(np.int64)]))


def _unbounded(v: SeqVector) -> SeqVector:
    return dataclasses.replace(v, majorant=math.inf)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(v=_TREES)
def test_majorant_bounds_every_coordinate(v):
    assert math.isfinite(v.majorant)
    assert np.abs(v.coords(_KS)).max() <= v.majorant * (1 + 1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(v=_TREES, data=st.data())
def test_majorant_keeps_scan_decisions_and_values(v, data):
    tol = 1e-2
    free = _unbounded(v)
    try:
        ref = sup_norm(free, tol)
    except UnreachableToleranceError:
        assume(False)
    got = sup_norm(v, tol)
    # both brackets hold the true norm, and neither is wider than tol
    assert max(got.error_bound, ref.error_bound) <= tol
    assert got.value - 1e-12 <= ref.value + ref.error_bound
    assert ref.value - 1e-12 <= got.value + got.error_bound
    thresholds = [ref.value * data.draw(st.floats(0.0, 2.0), label="scale"),
                  data.draw(st.floats(0.0, 2 * v.majorant + 1.0), label="thr"),
                  v.majorant - tol / 2, v.majorant + 1e-8]
    for thr in thresholds:
        bounded, unbounded = norm_exceeds(v, thr, tol), norm_exceeds(free, thr, tol)
        # a capped bracket only ends scans sooner: a True it proves, the
        # unbounded scan proves as well
        assert bounded <= unbounded
        # and only a threshold the cap can straddle, one within tol below
        # the majorant, can be left unproved by it (within 1e-9 above the
        # majorant the rounding of the coordinates themselves decides)
        if not (v.majorant - tol <= thr <= v.majorant + 1e-9):
            assert bounded == unbounded, thr


@settings(max_examples=40, deadline=None, derandomize=True)
@given(v=_TREES)
def test_validate_certificate_checks_the_majorant(v):
    # basis and prefix probes are exact only past their support, so their
    # tail certificates hold from any start, inside the support included
    for after in (16, 64):
        assert validate_certificate(v, after=after, samples=500) <= 1e-12
    head = float(np.abs(v.prefix(64)).max())
    low = max(abs(v.limit), head / 2)
    if head > low:
        wrong = dataclasses.replace(v, majorant=low)
        assert validate_certificate(wrong, after=64, samples=500) >= head - low


@pytest.mark.parametrize("build, majorant", [
    (lambda: constant_one(), 1.0),
    (lambda: from_prefix([], 0.0), 0.0),
    (lambda: basis_vector(3), 1.0),
    (lambda: from_prefix([0.5, -3j, 1.0], 2.0, TailCertificate(5.0, 1.0)), 3.0),
    (lambda: from_prefix([0.5], -2.0), 2.0),
    (lambda: lin_comb([0.0, 2.0], [SeqVector(lambda ks: ks * 0j, 0.0,
                                             TailCertificate.zero()), constant_one()]), 2.0),
    (lambda: lin_comb([0.0, 0.0], [constant_one(), constant_one()]), 0.0),
])
def test_majorant_sources(build, majorant):
    assert build().majorant == majorant


@pytest.mark.parametrize("majorant", [float("nan"), -1.0, 0.5])
def test_majorant_is_validated(majorant):
    with pytest.raises(ValueError):
        SeqVector(lambda ks: ks * 0j, 1.0, TailCertificate.zero(), "c", majorant)


def test_cesaro_mean_of_one_closes_at_the_first_block():
    # A_1000 1 of the harmonic symbol: |A_n 1 (k)| <= 1 = |limit|, but the
    # tail certificate alone needs ~1.57M coordinates at tol 1e-3
    an = cesaro(DiagonalOperator(harmonic_symbol(1.0)), constant_one(), 1000)
    scanned = []
    real = an.coord
    vec = dataclasses.replace(an, coord=lambda ks: scanned.append(ks.size) or real(ks))
    assert sup_norm(vec, 1e-3) == (1.0, 0.0)
    assert sum(scanned) == 64


def test_retag_carries_certificates():
    x = from_prefix([0.5, -0.25j], 0.0, TailCertificate(0.5, 2.0))
    y = x.retag("c0")
    assert (y.space_tag, y.tail, y.majorant) == ("c0", x.tail, x.majorant)
    assert y.retag("c").space_tag == "c"
    with pytest.raises(SpaceTagError):
        constant_one().retag("c0")


# ---------------------------------------------------------------------------
# the head screen of diagonal greedy nets

@pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan"), float("inf")])
def test_cloud_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError):
        orbit(DiagonalOperator(harmonic_symbol()), constant_one(), 10, tol=tol)


@pytest.mark.parametrize("block", [None, 1, 7])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(sym=_SYMBOLS, x=_PROBES, data=st.data())
def test_screened_net_matches_per_pair_reference(block, sym, x, data):
    tol = 1e-8
    h = data.draw(st.integers(2, 120), label="horizon")
    op = DiagonalOperator(sym, "c")
    # eps is a head modulus of some (T^d - I) x, or one ulp either side,
    # so the screen's strict ">" meets coordinates equal to eps
    d = data.draw(st.integers(1, h - 1), label="d")
    head = np.abs(power_difference_rows(op, [d], 0, x, np.arange(1, 65)))[0]
    r = float(data.draw(st.sampled_from(sorted(set(head.tolist()))), label="modulus"))
    eps = data.draw(st.sampled_from([np.nextafter(r, -np.inf), r, np.nextafter(r, np.inf)]),
                    label="eps")
    assume(eps > 0)
    cap = data.draw(st.one_of(st.none(), st.integers(1, h)), label="cap")
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(operators, "_SCREEN_BLOCK", block)
        # a fresh operator, so its phase range is built at this block
        cloud = orbit(DiagonalOperator(sym, "c"), x, h, tol=tol)
        ref = scan_decisions(cloud, eps)
        assert cloud.greedy_net(eps, cap) == ref_net(cloud.labels, ref, cap)
        # a second, uncapped net reuses what the first screened and decided
        assert cloud.greedy_net(eps) == ref_net(cloud.labels, ref)
