"""The witness pair search against the closure path.

``power_difference_rows`` must give the coordinates the closure vectors
give, bit for bit.  The search decides each candidate difference d from
one orbit cloud per logged product P, and its accept/reject for every d
must equal the closure reference on ``(T^{1+d} - T) P``: ``norm_exceeds``,
then the upper end of ``sup_norm``.  An unreachable tolerance rejects, and
the product log is capped by products times horizon.  ``c0_witness`` must
select the same pairs whatever the block size; the expected selection
logs were computed by the per-candidate pair search of closure vectors.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import power_difference_rows
from orbitlab import gallery, operators, orbits, seqspace
from orbitlab.errors import (HorizonExhaustedError, NotApplicableError,
                             UnreachableToleranceError)
from orbitlab.gallery import c0_witness
from orbitlab.operators import (DiagonalOperator, constant_symbol,
                                harmonic_symbol, power_apply, root_perturbed_symbol)
from orbitlab.orbits import _SEPARATED, orbit
from orbitlab.seqspace import (TailCertificate, basis_vector, constant_one, from_prefix,
                               lin_comb, norm_exceeds, sup_norm)

SYMBOLS = {
    "harmonic-1": harmonic_symbol(1.0),
    "harmonic-1.7": harmonic_symbol(1.7),
    "root-2": root_perturbed_symbol(2),
    "root-3-rate-1.3": root_perturbed_symbol(3, 1.3),
    "constant": constant_symbol(0.7),
}


def _probes(op):
    one, pre = constant_one(), from_prefix([0.5, 1j, -2.0], 1.0)
    return {
        "one": one,
        "basis": basis_vector(3, "c"),
        "prefix": pre,
        "product-one": lin_comb([1.0, -1.0], [power_apply(op, 5, one),
                                             power_apply(op, 2, one)]),
        "product-prefix": lin_comb([1.0, -1.0], [power_apply(op, 9, pre),
                                                power_apply(op, 3, pre)]),
    }


def _closure_rows(op, s, t, y, ks):
    return np.array([lin_comb([1.0, -1.0], [power_apply(op, si, y),
                                            power_apply(op, t, y)]).coords(ks)
                     for si in s.tolist()])


@pytest.mark.parametrize("t", [0, 1, 7])
@pytest.mark.parametrize("name", sorted(SYMBOLS))
def test_rows_equal_closure_coords_bit_for_bit(name, t):
    op = DiagonalOperator(SYMBOLS[name], "c")
    rng = np.random.default_rng([sorted(SYMBOLS).index(name), t])
    s = np.concatenate([[0, 1, t, 99_999], rng.integers(0, 100_000, size=40)])
    for probe, y in _probes(op).items():
        for ks in (np.arange(1, 65), np.sort(rng.integers(1, 10**6, size=32))):
            got = power_difference_rows(op, s, t, y, ks)
            want = _closure_rows(op, s, t, y, ks)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), probe


def test_rows_reject_negative_exponents():
    op = DiagonalOperator(harmonic_symbol(1.0), "c")
    with pytest.raises(ValueError):
        power_difference_rows(op, [1, -2], 0, constant_one(), np.arange(1, 65))
    with pytest.raises(ValueError):
        power_difference_rows(op, [1], -1, constant_one(), np.arange(1, 65))


def _selection_log(op, x):
    try:
        return c0_witness(op, x, 4, 3000, tol=1e-6).selection_log
    except HorizonExhaustedError as exc:
        return exc.audit.selection_log


@pytest.mark.parametrize("block", [None, 1, 7])
@pytest.mark.parametrize("rate, probe, log", [
    (2.0, "one", ((2, 1), (1153, 1))),
    (3.0, "one", ((2, 1), (49, 1))),
    (3.0, "prefix", ((4, 1), (273, 1))),
    (2.0, "prefix", ((3, 1),)),
])
def test_selection_log_is_independent_of_block(monkeypatch, block, rate, probe, log):
    if block is not None:
        monkeypatch.setattr(operators, "_SCREEN_BLOCK", block)
    op = DiagonalOperator(harmonic_symbol(rate), "c")
    x = constant_one() if probe == "one" else from_prefix([0.5, 1j], 1.0)
    assert _selection_log(op, x) == log


@pytest.mark.parametrize("block", [None, 1, 7])
def test_root_perturbed_still_not_applicable(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(operators, "_SCREEN_BLOCK", block)
    op = DiagonalOperator(root_perturbed_symbol(3), "c")
    with pytest.raises(NotApplicableError):
        c0_witness(op, constant_one(), 4, 3000, tol=1e-6)


def test_demo_size_call_makes_few_norm_scans(monkeypatch):
    # the per-candidate search made 20,498 norm_exceeds calls here
    calls = []
    real = orbits.norm_exceeds

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(orbits, "norm_exceeds", counting)  # every cloud scans through it
    op = DiagonalOperator(harmonic_symbol(1.0), "c")
    with pytest.raises(HorizonExhaustedError) as info:
        c0_witness(op, constant_one(), 20, 10_000, tol=1e-6)
    assert info.value.audit.selection_log == ((2, 1),)
    assert len(calls) <= 600


# the witness's limit-one family and constants.  Under a root-of-unity
# limit, a difference whose norm is its |limit| closes only where the tail
# bound falls below tol, which can take the scan's whole 2^27-coordinate
# budget (a minute) before it reports an unreachable tolerance.
_SYMBOLS = st.one_of(
    st.builds(harmonic_symbol, st.floats(1.0, 2.0)),
    st.builds(constant_symbol, st.floats(0.0, 6.3)))
_SMALL = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
_PROBES = st.one_of(
    st.just(constant_one()),
    st.builds(basis_vector, st.integers(1, 80), st.just("c")),
    st.builds(from_prefix, st.lists(_SMALL, min_size=1, max_size=6), _SMALL))


class _AllSeparated:
    """A witness cloud whose orbit points are all certified apart, so the
    search's decisions are those of its product clouds alone."""

    def states(self, eps, dmax):
        return np.full(dmax + 1, _SEPARATED, dtype=np.int8)

    def separated(self, l1, l2, eps):
        return True


def _reference(op, p, d, tau, tol):
    """The closure path on ``(T^{1+d} - T) p``: whether it is certified at
    most tau, and its ``sup_norm`` bracket (None if that is unreachable)."""
    v = lin_comb([1.0, -1.0], [power_apply(op, 1 + d, p), power_apply(op, 1, p)])
    try:
        val, err = sup_norm(v, tol)
    except UnreachableToleranceError:
        return False, None
    try:
        exceeds = norm_exceeds(v, tau, tol)
    except UnreachableToleranceError:
        return False, (val, val + err)
    return not exceeds and val + err <= tau, (val, val + err)


@pytest.mark.parametrize("block", [1, 7, 1024])
@pytest.mark.parametrize("lead", [1, 4, 63, 64])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(sym=_SYMBOLS, x=_PROBES, data=st.data())
def test_search_decisions_equal_the_closure_reference(lead, block, sym, x, data):
    op = DiagonalOperator(sym, "c")
    h = data.draw(st.integers(2, 120), label="horizon")
    pairs = data.draw(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30))
                               .filter(lambda p: p[0] != p[1]), min_size=1, max_size=3),
                      label="products (A, B), with offsets B != 0")
    prods = [lin_comb([1.0, -1.0], [power_apply(op, a, x), power_apply(op, b, x)])
             for a, b in pairs]
    ds = np.arange(1, h)
    heads = np.concatenate([np.abs(power_difference_rows(op, 1 + ds, 1, p, np.arange(1, 65)))
                            .max(axis=1) for p in prods])
    tau = data.draw(st.one_of(st.floats(0.01, 4.0),
                              st.sampled_from(sorted(set(heads[heads > 0.01].tolist())
                                                     or [1.0]))), label="tau")
    tol = min(1e-6, tau / 8)  # the product clouds' tolerance in c0_witness

    def clouds():  # on a fresh operator, whose range is built at these widths
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "_LEAD", lead)
            mp.setattr(operators, "_SCREEN_BLOCK", block)
            fresh = DiagonalOperator(sym, "c")
            ph = fresh.phase_range
        return ph, [orbit(fresh, p, h, tol=tol) for p in prods]

    want, near = set(), set()
    for d in ds.tolist():
        refs = [_reference(op, p, d, tau, tol) for p in prods]
        if all(ok for ok, _ in refs):
            want.add(d)
        if any(br is not None and br[0] - 1e-12 <= tau <= br[1] + 1e-12 for _, br in refs):
            near.add(d)
    # every accepted d, in order, from the search's bulk and per-d decisions
    ph, search = clouds()
    got: list[int] = []
    while (d := gallery._first_pair(_AllSeparated(), search, h, ph.block, 1.0, tau,
                                    set(got))) is not None:
        got.append(d)
    assert got == sorted(got)
    assert set(got) - near == want - near
    # each d decided cold, with no bulk decision made first
    _, cold = clouds()
    assert {d for d in ds.tolist() if gallery._below(cold, d, tau)} - near == want - near


def test_a_bracket_that_straddles_tau_rejects():
    # the closure reference test skips these; a loose tail certificate leaves
    # (T - I) p the bracket [sqrt 2, 2] at its first block, which closes
    # there at tol 0.6 and straddles tau = 1.7
    op = DiagonalOperator(harmonic_symbol(1.0), "c")
    p = from_prefix([0.0, 1.0], 0.0, TailCertificate(200.0, 1.0, 2))
    cloud = orbit(op, p, 4, tol=0.6)
    val, err = cloud.distance(2, 1)
    assert val < 1.7 < val + err and not cloud.separated(2, 1, 1.7)
    assert not gallery._below([cloud], 1, 1.7)
    assert _reference(op, p, 1, 1.7, 0.6)[0] is False
    assert gallery._below([cloud], 1, 2.0)


def test_an_unreachable_product_decision_rejects(monkeypatch):
    op = DiagonalOperator(harmonic_symbol(1.0), "c")
    # a true tail bound that never decays: no scan closes the bracket of
    # (T^4 - I) p, whose head is 0 (a_2^4 = 1) and whose upper end stays 2
    p = from_prefix([0.0, 1.0], 0.0, TailCertificate(1.0, 0.0))
    # the same error as at the full budget, sooner
    monkeypatch.setattr(orbits, "norm_exceeds",
                        functools.partial(seqspace.norm_exceeds, max_terms=256))
    monkeypatch.setattr(orbits, "sup_norm", functools.partial(seqspace.sup_norm, max_terms=256))
    cloud = orbit(op, p, 10, tol=1e-6)
    with pytest.raises(UnreachableToleranceError):
        cloud.separated(5, 1, 0.5)
    assert not gallery._below([cloud], 4, 0.5)
    # the other d < 10 have a head coordinate above 0.5, or are d = 8
    assert gallery._first_pair(_AllSeparated(), [cloud], 10, 1024, 1.0, 0.5, set()) is None


def test_product_log_is_capped_by_products_times_horizon(monkeypatch):
    op = DiagonalOperator(harmonic_symbol(2.0), "c")
    # a product cloud holds 34 B per difference, and labels as a range
    cloud = orbit(op, constant_one(), 3000, tol=1e-8)
    cloud.states(0.1, 2999)
    held = (cloud._brackets.nbytes + cloud._whole.nbytes
            + sum(a.nbytes for a in cloud._sep.values()))
    assert held == 34 * 3000 and isinstance(cloud.labels, range)
    assert gallery._MAX_PRODUCT_DIFFERENCES * 34 <= 64 << 20
    # the first entry doubles the log to 2 products of 3000 differences each
    monkeypatch.setattr(gallery, "_MAX_PRODUCT_DIFFERENCES", 2 * 3000 - 1)
    with pytest.raises(ValueError, match="product log"):
        c0_witness(op, constant_one(), 4, 3000, tol=1e-6)
    monkeypatch.setattr(gallery, "_MAX_PRODUCT_DIFFERENCES", 4 * 3000)
    assert _selection_log(op, constant_one()) == ((2, 1), (1153, 1))


def test_a_complete_ladder_is_not_held_to_the_product_cap(monkeypatch):
    # one entry would double the log to 2 products of 3000 differences, but
    # a count-1 ladder is complete and builds no further product cloud
    op = DiagonalOperator(harmonic_symbol(2.0), "c")
    monkeypatch.setattr(gallery, "_MAX_PRODUCT_DIFFERENCES", 2 * 3000 - 1)
    audit = c0_witness(op, constant_one(), 1, 3000, tol=1e-6)
    assert audit.achieved_count == 1 and audit.selection_log == ((2, 1),)


def test_the_product_cap_raises_before_the_next_step_builds(monkeypatch):
    op, x = DiagonalOperator(harmonic_symbol(2.0), "c"), constant_one()
    monkeypatch.setattr(gallery, "_MAX_PRODUCT_DIFFERENCES", 2 * 3000 - 1)
    probes = []  # whether each cloud c0_witness builds is of the probe itself
    real = gallery.orbit

    def recording(op, y, *args, **kwargs):
        probes.append(y is x)
        return real(op, y, *args, **kwargs)

    monkeypatch.setattr(gallery, "orbit", recording)
    with pytest.raises(ValueError, match="product log"):
        c0_witness(op, x, 2, 3000, tol=1e-6)
    # step 1 has no product cloud (the log holds only the empty product),
    # and step 2's cloud of (T^2 - T) x is never built
    assert probes and all(probes)
