"""A diagonal cloud decides its differences a block at a time.

A cloud's ``_certificates`` gives ``|limit|``, ``tail.bound(64)`` and the
majorant of ``(T^d - I) y`` for a block of d in closed form, by
``operators.difference_certificate`` over an int array of d; each must
equal what the closure vector ``lin_comb([1.0, -1.0], [power_apply(op, d,
y), y])`` certifies, bit for bit.  The
cloud applies ``seqspace.exceeds_exit`` to those brackets (each head
maximum completed from its lead coordinates where the lead proves
nothing), so every bulk decision and every first-block distance must
equal the scan's.  The greedy net steps one member at a time over a mask
of blocked candidates; on any mix of decided and open differences it must
equal the point-by-point reference net of ``conftest.ref_net``.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import ref_net
from orbitlab import cli, orbits
from orbitlab.errors import SpaceTagError, UnreachableToleranceError
from orbitlab.jdlg import diagonal_jdlg
from orbitlab.operators import (DiagonalOperator, DiagonalSymbol, PhaseRange,
                                constant_symbol, difference_certificate,
                                harmonic_symbol, power_apply, root_perturbed_symbol)
from orbitlab.orbits import orbit
from orbitlab.seqspace import (TailCertificate, basis_vector, constant_one,
                               exceeds_exit, from_prefix, lin_comb, norm_bracket,
                               norm_exceeds, sup_norm)

_SYMBOLS = st.one_of(
    st.builds(harmonic_symbol, st.sampled_from([1, 1.0, 0.5, 1.3, 2.0])),
    st.builds(root_perturbed_symbol, st.integers(1, 6), st.sampled_from([1, 1.3, 0.7])),
    st.builds(constant_symbol, st.floats(0.0, 6.3)))
_SMALL = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
_PROBES = st.one_of(
    st.just(constant_one()),
    st.builds(basis_vector, st.integers(1, 200), st.sampled_from(["c", "c0"])),
    st.builds(from_prefix, st.lists(_SMALL, min_size=1, max_size=80),
              st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0,
                                 allow_nan=False, allow_infinity=False)))


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def _vector(op, d, y):
    return lin_comb([1.0, -1.0], [power_apply(op, d, y), y])


def _bulk_certificates(op, ds, y):
    """The rows ``|limit|``, tail bound at k = 64 and majorant a cloud of
    ``y`` takes for the differences ``ds``."""
    return np.array(np.broadcast_arrays(*orbit(op, y, 2)._certificates(np.asarray(ds))))


def _assert_certificates_match(op, ds, y):
    got = _bulk_certificates(op, ds, y)
    for i, d in enumerate(ds):
        v = _vector(op, d, y)
        want = [abs(v.limit), float(v.tail.bound(64)), v.majorant]
        assert (_bits(got[:, i]) == _bits(want)).all(), (d, got[:, i], want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sym=_SYMBOLS, y=_PROBES,
       ds=st.lists(st.integers(1, 10**5), min_size=1, max_size=12, unique=True))
def test_certificates_equal_the_vectors_bit_for_bit(sym, y, ds):
    _assert_certificates_match(DiagonalOperator(sym, "c"), ds, y)


class _LateSymbol(DiagonalSymbol):
    """A harmonic symbol whose tail certificate starts only past k = 100
    (no catalogued family does), and so do its powers'."""

    _family_tail = TailCertificate(math.pi, 1.0, 100)


@pytest.mark.parametrize("sym", [harmonic_symbol(1.3), root_perturbed_symbol(4, 0.7),
                                 constant_symbol(2.0), _LateSymbol("harmonic", (1.0,)),
                                 root_perturbed_symbol(2), harmonic_symbol(1.3).power(3)],
                         ids=["harmonic", "root", "constant", "late-symbol", "root-2",
                              "power-3"])
@pytest.mark.parametrize("limit", [0.0, 0.6 - 0.8j], ids=["c0-limit", "unit-limit"])
@pytest.mark.parametrize("tail", [None, TailCertificate(0.25, 0.5), TailCertificate(0.25, 3.0),
                                  TailCertificate(0.25, 3.0, 10), TailCertificate(0.25, 0.5, 64),
                                  TailCertificate(0.25, 0.5, 65)],
                         ids=["exact", "slow", "fast", "fast-from-10", "slow-from-64",
                              "slow-from-65"])
def test_certificates_equal_the_vectors_on_every_branch(sym, limit, tail):
    # every way the tail terms combine: the probe's own tail zero or not,
    # weaker or stronger than the symbol's, the symbol's term absent (zero
    # limit or a constant symbol), and a start at, below and past k = 64,
    # the probe's or the symbol's
    y = from_prefix([0.5, -0.25j, 0.75], limit, tail=tail)
    _assert_certificates_match(DiagonalOperator(sym, "c"), [1, 2, 7, 64, 1000, 10**5], y)


def test_certificates_past_a_late_support():
    # a basis probe past the first block: no tail bound at k = 64
    op = DiagonalOperator(root_perturbed_symbol(3, 1.3), "c")
    got = _bulk_certificates(op, [1, 2, 99], basis_vector(100, "c"))
    assert np.isinf(got[1]).all() and (got[2] == 2.0).all() and (got[0] == 0.0).all()


def test_certificates_refuse_what_the_vector_algebra_refuses():
    with pytest.raises(SpaceTagError):
        orbit(DiagonalOperator(harmonic_symbol(), "c0"), constant_one(), 2)
    with pytest.raises(ValueError):
        difference_certificate(harmonic_symbol(), np.array([-1, 1]), 0, constant_one())


def test_exit_rule_on_scalars_and_arrays():
    # (head max, |limit|, tail bound, majorant) -> exit at threshold 1, tol 0.01
    cases = [
        ((1.5, 0.0, 0.0, 2.0), 1),     # a head coordinate above the threshold
        ((0.0, 1.5, 0.0, 2.0), 1),     # the limit above it
        ((1.0, 1.0, 5.0, 5.0), 0),     # both at it prove nothing
        ((0.0, 0.0, 5.0, 1.0), -1),    # the majorant caps the bracket at it
        ((0.0, 0.5, 0.5, 5.0), -1),    # |limit| + bound at it
        ((0.995, 0.0, 2.0, 1.004), -1),  # straddles within tol: conservative "no"
        ((0.9, 0.0, 2.0, 1.02), 0),    # straddles wider than tol: scan on
    ]
    want = [exit_ for _, exit_ in cases]
    assert [int(exceeds_exit(*b, 1.0, 0.01)) for b, _ in cases] == want
    assert exceeds_exit(*np.array([b for b, _ in cases]).T, 1.0, 0.01).tolist() == want


@settings(max_examples=25, deadline=None, derandomize=True)
@given(sym=_SYMBOLS, y=_PROBES, data=st.data())
def test_bulk_decisions_and_distances_equal_the_scans(sym, y, data):
    tol = data.draw(st.sampled_from([1e-8, 1e-3, 0.3]), label="tol")
    eps = data.draw(st.floats(4 * tol, 3.0, exclude_min=True), label="eps")
    h = data.draw(st.integers(2, 150), label="horizon")
    cloud = orbit(DiagonalOperator(sym, "c"), y, h, tol=tol)
    states = cloud.states(eps, h - 1)
    for d in range(1, h):
        v = cloud._diff_vector(1 + d, 1)
        if states[d] != orbits._UNKNOWN:  # a bulk first-block exit
            assert (states[d] == orbits._SEPARATED) == norm_exceeds(v, eps, tol)
        lower, upper = norm_bracket(*cloud.complete([d])[:, d])  # with the whole head
        if upper - lower <= tol:  # sup_norm's first-block return
            assert _bits(cloud.distance(1 + d, 1)).tolist() == _bits(sup_norm(v, tol)).tolist()
        else:
            try:
                want = sup_norm(v, tol, max_terms=1 << 16)
            except UnreachableToleranceError:
                continue
            assert cloud.distance(1 + d, 1) == want


# first-block brackets (head maximum, |limit|, tail bound, majorant) that
# exceeds_exit decides as each state at eps = 1, tol = 1e-3
_EPS, _TOL = 1.0, 1e-3
_BRACKETS = {
    orbits._SEPARATED: (2.0, 0.0, 0.0, 2.0),
    orbits._NOT_SEPARATED: (0.5, 0.0, 0.0, 0.5),
    orbits._UNKNOWN: (0.5, 0.0, np.inf, np.inf),  # left to a further scan
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_member_stepping_net_equals_the_reference(data):
    h = data.draw(st.integers(1, 60), label="horizon")
    mix = data.draw(st.sampled_from(["mixed", "no at d = 1", "no 'no'"]), label="mix")
    pool = [orbits._SEPARATED, orbits._UNKNOWN]
    if mix != "no 'no'":
        pool.append(orbits._NOT_SEPARATED)
    states = [orbits._UNKNOWN] + data.draw(
        st.lists(st.sampled_from(pool), min_size=h - 1, max_size=h - 1), label="states")
    if mix == "no at d = 1" and h > 1:
        states[1] = orbits._NOT_SEPARATED
    # what a further scan answers for an open difference (a straddle says no)
    truth = [False] + [s == orbits._SEPARATED
                       or (s == orbits._UNKNOWN and data.draw(st.booleans()))
                       for s in states[1:]]
    cap = data.draw(st.sampled_from([None, 1, 2, h + 3]), label="cap")
    block = data.draw(st.sampled_from([1, 3, 7, 1024]), label="block")
    brackets = np.array([_BRACKETS[s] for s in states]).T
    # each lead maximum is its head maximum or a quarter of it, so heads
    # above eps are proved from the lead or only once completed
    leads = brackets[0] * data.draw(
        st.lists(st.sampled_from([1.0, 0.25]), min_size=h, max_size=h), label="leads")
    completed = []

    def complete(lead, ns):
        assert (lead == leads[ns]).all()
        completed.extend(ns.tolist())
        return brackets[0, ns]

    cloud = orbit(DiagonalOperator(harmonic_symbol(), "c"), constant_one(), h, tol=_TOL)
    cloud._phases.block = block
    cloud._lead_maxima = lambda lo, count: leads[lo:lo + count]
    cloud._completed = complete
    cloud._certificates = lambda ds: brackets[1:, ds]
    cloud._diff_vector = lambda a, b: abs(a - b)
    scanned = []

    def scan(d, eps, tol, head_max):
        assert head_max == brackets[0, d]
        scanned.append(d)
        return truth[d]

    with mock.patch.object(orbits, "norm_exceeds", scan):
        got = cloud.greedy_net(_EPS, cap)
    assert got == ref_net(range(1, h + 1), lambda a, b: truth[abs(a - b)], cap)
    assert len(scanned) == len(set(scanned))  # each open difference scanned once
    assert all(states[d] == orbits._UNKNOWN for d in scanned)
    # a head is completed once, and only where its lead proves nothing
    assert len(completed) == len(set(completed))
    assert sorted(completed) == [d for d in range(1, cloud._headed + 1) if leads[d] <= _EPS]
    decided = cloud.states(_EPS)
    for d in range(1, h):
        if decided[d] != orbits._UNKNOWN:
            assert (decided[d] == orbits._SEPARATED) == truth[d]


def _count_phase_ranges(monkeypatch):
    made = []
    real = PhaseRange.__init__

    def init(self, op):
        made.append(op)
        real(self, op)

    monkeypatch.setattr(PhaseRange, "__init__", init)
    return made


def test_one_phase_range_per_jdlg_cross_check(monkeypatch):
    made = _count_phase_ranges(monkeypatch)
    rep = diagonal_jdlg(DiagonalOperator(root_perturbed_symbol(3), "c"))
    assert rep.cross_check["consistent"] and len(made) == 1


@pytest.mark.parametrize("demo", ["example33", "example43"])
def test_one_phase_range_per_demo(monkeypatch, tmp_path, capsys, demo):
    made = _count_phase_ranges(monkeypatch)
    assert cli.main(["demo", demo, "--out-dir", str(tmp_path)]) == 0
    assert len(made) == 1
