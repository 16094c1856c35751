import dataclasses
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (commuting_matrix_family, power_difference_rows, random_power_bounded,
                      ref_net, scan_decisions)
from orbitlab import orbits
from orbitlab.cli import report_value
from orbitlab.ergodic import mean_ergodic_projection
from orbitlab.operators import (DiagonalOperator, MatrixOperator, PhaseRange,
                                constant_symbol, harmonic_symbol, root_perturbed_symbol)
from orbitlab.orbits import (cloud_diagnostic, compactness_diagnostic, difference_orbit,
                             difference_compactness_diagnostic, orbit)
from orbitlab.seqspace import (FiniteVector, basis_vector, constant_one, exceeds_exit,
                               from_prefix, lin_comb, stacked_norms, sup_norm)


def harmonic_op():
    return DiagonalOperator(harmonic_symbol(), "c")


def m2_op():
    return DiagonalOperator(root_perturbed_symbol(2), "c")


class TestOrbit:
    def test_identity_orbit_has_diameter_zero(self):
        op = DiagonalOperator(constant_symbol(0.0), "c")
        cloud = orbit(op, constant_one(), 5, tol=1e-6)
        for n in range(2, 6):
            assert cloud.distance(1, n).value == 0.0

    def test_harmonic_orbit_pairwise_distance_two(self):
        cloud = orbit(harmonic_op(), constant_one(), 50, tol=1e-8)
        rng = np.random.default_rng(5)
        for _ in range(25):
            n, m = rng.choice(50, size=2, replace=False) + 1
            val, err = cloud.distance(int(n), int(m))
            assert abs(val - 2.0) <= 1e-8 + err

    def test_scalar_decay_orbit(self):
        op = MatrixOperator(np.array([[0.5]], dtype=complex))
        cloud = orbit(op, FiniteVector(np.array([1.0 + 0j])), 10)
        pts = [cloud.vector(n).coords[0] for n in cloud.labels]
        assert np.allclose(pts, [0.5 ** n for n in range(1, 11)])

    def test_zero_probe_orbit_is_a_point(self):
        cloud = orbit(harmonic_op(), from_prefix([], 0.0), 6, tol=1e-6)
        assert len(cloud.greedy_net(0.5)) == 1
        for n in cloud.labels:
            assert sup_norm(cloud.vector(n), 1e-9).value == 0.0


class TestDifferenceOrbit:
    def test_fixed_point_gives_zero_cloud(self):
        op = DiagonalOperator(constant_symbol(0.0), "c")
        cloud = difference_orbit(op, constant_one(), 4, tol=1e-6)
        for n in cloud.labels:
            assert sup_norm(cloud.vector(n), 1e-6).value == 0.0

    def test_harmonic_difference_lies_in_c0(self):
        cloud = difference_orbit(harmonic_op(), constant_one(), 10, tol=1e-8)
        for n in cloud.labels:
            assert cloud.vector(n).limit == 0

    def test_scalar_difference_values(self):
        op = MatrixOperator(np.array([[0.5]], dtype=complex))
        cloud = difference_orbit(op, FiniteVector(np.array([1.0 + 0j])), 6)
        for n in cloud.labels:
            assert abs(cloud.vector(n).coords[0] - 0.5 ** n * 0.5) < 1e-15


class TestPacking:
    def test_single_point(self):
        cloud = orbit(harmonic_op(), constant_one(), 1, tol=1e-6)
        assert len(cloud.greedy_net(1.0)) == 1

    def test_harmonic_orbit_packing_equals_horizon(self):
        for horizon in (20, 40):
            cloud = orbit(harmonic_op(), constant_one(), horizon, tol=1e-8)
            assert len(cloud.greedy_net(1.0)) == horizon

    def test_scalar_orbit_brute_force(self):
        # points 0.5^n for n = 1..10; at eps = 0.26 the greedy net keeps
        # 0.5 and 0.125 (0.5 vs 0.25 is only 0.25 apart)
        op = MatrixOperator(np.array([[0.5]], dtype=complex))
        cloud = orbit(op, FiniteVector(np.array([1.0 + 0j])), 10)
        assert len(cloud.greedy_net(0.26)) == 2

    def test_epsilon_must_clear_tolerance(self):
        cloud = orbit(harmonic_op(), constant_one(), 3, tol=1e-2)
        with pytest.raises(ValueError):
            cloud_diagnostic(cloud, [0.03], [1, 2, 3])


_SYMBOLS = st.one_of(
    st.builds(harmonic_symbol, st.floats(0.5, 2.0)),
    st.builds(root_perturbed_symbol, st.integers(2, 5), st.floats(0.5, 2.0)))
_SMALL = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
_PROBES = st.one_of(
    st.just(constant_one()),
    st.builds(basis_vector, st.integers(1, 20)),
    st.builds(from_prefix, st.lists(_SMALL, min_size=1, max_size=4), _SMALL))


class TestDiagonalNet:
    """The diagonal cloud's array step against the per-pair reference path."""

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(sym=_SYMBOLS, x=_PROBES, data=st.data())
    def test_counts_match_per_pair_reference(self, sym, x, data):
        tol = 1e-8
        h = data.draw(st.integers(2, 300), label="horizon")
        eps = data.draw(st.floats(4 * tol, 2.5, exclude_min=True), label="eps")
        marks = data.draw(st.lists(st.integers(1, h), min_size=1, unique=True),
                          label="checkpoints")
        cap = data.draw(st.integers(1, h), label="cap")
        cloud = orbit(DiagonalOperator(sym, "c"), x, h, tol=tol)
        ref = scan_decisions(cloud, eps)
        want = ref_net(cloud.labels, ref)
        assert (orbits._greedy_counts(cloud, eps, marks)
                == [bisect_left(want, c) for c in sorted(set(marks))])
        assert cloud.greedy_net(eps, cap) == ref_net(cloud.labels, ref, cap)

    @staticmethod
    def _record_decisions(monkeypatch, cloud):
        """Record lead maxima, head completions, first-block certificates,
        per-d decisions and every scan."""
        rec = {"led": [], "lead": {}, "completed": [], "certified": [], "decided": [],
               "scans": []}
        cls = orbits._DiagOrbitCloud
        real_leads, real_complete = cls._lead_maxima, cls._completed
        real_scan = orbits.norm_exceeds
        real_certs, real_separated = cls._certificates, cloud.separated

        def leads(self, lo, count):
            got = real_leads(self, lo, count)
            rec["led"].extend(range(lo, lo + count))
            rec["lead"].update(zip(range(lo, lo + count), got.tolist()))
            return got

        def complete(self, lead, ns):
            rec["completed"].extend(np.asarray(ns).tolist())
            return real_complete(self, lead, ns)

        def certs(self, ds):
            rec["certified"].extend(np.asarray(ds).tolist())
            return real_certs(self, ds)

        def scan(v, threshold, tol, **kwargs):
            evaluated = []
            real_coord = v.coord
            probe = dataclasses.replace(
                v, coord=lambda ks: evaluated.extend(ks.tolist()) or real_coord(ks))
            ok = real_scan(probe, threshold, tol, **kwargs)
            # only a difference its first block leaves open is scanned, and
            # the scan starts from its completed head maximum, at k = 65
            head = np.abs(real_coord(np.arange(1, 65))).max()
            assert np.float64(kwargs["head_max"]).view(np.uint64) == head.view(np.uint64)
            assert min(evaluated, default=0) == 65
            rec["scans"].append(ok)
            return ok

        def separated(n, m, eps):
            rec["decided"].append(abs(n - m))
            return real_separated(n, m, eps)

        monkeypatch.setattr(cls, "_lead_maxima", leads)
        monkeypatch.setattr(cls, "_completed", complete)
        monkeypatch.setattr(cls, "_certificates", certs)
        monkeypatch.setattr(orbits, "norm_exceeds", scan)
        monkeypatch.setattr(cloud, "separated", separated)
        return rec

    @staticmethod
    def _kinds(cloud, eps):
        """Masks over d = 1 .. h-1 of the head proofs, the other bulk
        first-block exits, and the differences the first block leaves open,
        from whole heads formed apart from the cloud."""
        ds = np.arange(1, cloud._headed + 1)
        heads = np.abs(power_difference_rows(cloud._op, ds, 0, cloud._x,
                                             np.arange(1, 65))).max(axis=1)
        exits = exceeds_exit(heads, *cloud._brackets[1:, 1:cloud._headed + 1],
                             eps, cloud.tol)
        proved = heads > eps
        return proved, (exits != 0) & ~proved, exits == 0

    @staticmethod
    def _needs_whole_head(cloud, rec, eps):
        """The screened differences whose lead maximum and |limit| are both
        at or below eps: the only ones an asked eps completes."""
        return [d for d in range(1, cloud._screened[eps] + 1)
                if rec["lead"][d] <= eps and cloud._brackets[1, d] <= eps]

    def test_each_difference_decided_once(self, monkeypatch):
        cloud = orbit(harmonic_op(), constant_one(), 2000, tol=1e-8)
        rec = self._record_decisions(monkeypatch, cloud)
        assert len(cloud.greedy_net(1.0)) == 2000
        states = cloud.states(1.0)
        assert (states[1:] != orbits._UNKNOWN).all()  # every d in 1..1999
        # each lead and each first-block certificate is evaluated once
        assert sorted(rec["led"]) == list(range(1, 2000))
        assert sorted(rec["certified"]) == list(range(1, 2000))
        # each head is completed at most once, and only where eps needs it
        assert len(rec["completed"]) == len(set(rec["completed"]))
        assert sorted(rec["completed"]) == self._needs_whole_head(cloud, rec, 1.0)
        proved, bulk, open_ = self._kinds(cloud, 1.0)
        assert (states[1:][proved] == orbits._SEPARATED).all()
        assert (states[rec["completed"]] == orbits._SEPARATED).any()  # whole-head proofs
        assert len(rec["decided"]) == len(set(rec["decided"]))  # no d decided twice
        assert sorted(rec["decided"]) == (np.flatnonzero(open_) + 1).tolist()
        assert len(rec["decided"]) == len(rec["scans"])
        assert proved.sum() + bulk.sum() + len(rec["scans"]) == 1999
        # a distance completes the head it reads, once
        d = next(d for d in range(1, 2000) if rec["lead"][d] > 1.0)
        before = len(rec["completed"])
        cloud.distance(1, 1 + d)
        cloud.distance(1 + d, 1)
        assert rec["completed"][before:] == [d]

    def test_first_block_exits_and_further_scans(self, monkeypatch):
        # a difference orbit whose net needs head proofs, bulk first-block
        # "no" exits and scans that go on past the first block
        op = DiagonalOperator(root_perturbed_symbol(3, 1.3), "c")
        x = from_prefix([0.8 + 0.1j, -0.3 + 0.6j, 0.5 - 0.5j], 0.7)
        cloud = difference_orbit(op, x, 600, tol=1e-8)
        want = ref_net(cloud.labels, scan_decisions(cloud, 2.5))
        rec = self._record_decisions(monkeypatch, cloud)
        assert cloud.greedy_net(2.5) == want
        assert len(rec["led"]) == len(set(rec["led"]))
        assert rec["certified"] == rec["led"]
        assert len(rec["completed"]) == len(set(rec["completed"]))
        assert sorted(rec["completed"]) == self._needs_whole_head(cloud, rec, 2.5)
        assert (cloud.states(2.5)[rec["completed"]] == orbits._SEPARATED).any()
        proved, bulk, open_ = self._kinds(cloud, 2.5)
        states = cloud.states(2.5)[1:cloud._headed + 1]
        assert (states[bulk] == orbits._NOT_SEPARATED).all()
        assert len(rec["decided"]) == len(set(rec["decided"]))
        assert set(rec["decided"]) <= set((np.flatnonzero(open_) + 1).tolist())
        assert len(rec["decided"]) == len(rec["scans"])
        assert proved.any() and bulk.any() and rec["scans"]


class TestCovering:
    """The greedy separated net is also an eps-cover of the cloud."""

    def test_single_point(self):
        cloud = orbit(harmonic_op(), constant_one(), 1, tol=1e-6)
        assert len(cloud.greedy_net(1.0)) == 1

    def test_harmonic_cover_equals_horizon(self):
        cloud = orbit(harmonic_op(), constant_one(), 25, tol=1e-8)
        assert len(cloud.greedy_net(1.0)) == 25

    def test_two_clusters(self):
        pts = np.array([[0.0], [0.1], [10.0], [10.1]], dtype=np.complex128)
        cloud = orbits._MatrixOrbitCloud(pts, "sup", 1e-6, "")
        assert len(cloud.greedy_net(1.0)) == 2


class TestDiagnostic:
    def test_harmonic_orbit_grows(self):
        rep = compactness_diagnostic(harmonic_op(), constant_one(), [1.0],
                                     [50, 100, 200], tol=1e-8)
        assert rep.verdict == "growing"
        assert rep.packing[0].tolist() == [50, 100, 200]

    def test_harmonic_c0_vector_saturates(self):
        y = lin_comb([1.0, -1.0], [constant_one(), harmonic_op().apply(constant_one())])
        rep = cloud_diagnostic(orbit(harmonic_op(), y, 400, tol=1e-8),
                               [1.0], [100, 200, 400])
        assert rep.verdict == "saturating"
        assert rep.packing[0].tolist() == [48, 48, 48]

    def test_identity_saturates_at_one(self):
        op = DiagonalOperator(constant_symbol(0.0), "c")
        rep = compactness_diagnostic(op, constant_one(), [0.5], [4, 8, 16], tol=1e-3)
        assert rep.verdict == "saturating"
        assert rep.packing[0].tolist() == [1, 1, 1]

    def test_horizons_validated(self):
        with pytest.raises(ValueError):
            compactness_diagnostic(harmonic_op(), constant_one(), [1.0], [100, 50, 200])
        with pytest.raises(ValueError):
            compactness_diagnostic(harmonic_op(), constant_one(), [1.0], [100, 200])

    @pytest.mark.parametrize("horizons", [[-5, 0, 5], [0, 1, 2]])
    def test_horizons_below_one_rejected(self, horizons):
        # these used to run, with packing 0 at every horizon below 1
        cloud = orbit(harmonic_op(), constant_one(), 5, tol=1e-8)
        with pytest.raises(ValueError):
            cloud_diagnostic(cloud, [1.0], horizons)


class TestInvariants:
    def test_sandwich_and_monotonicity(self):
        cloud = difference_orbit(harmonic_op(), constant_one(), 150, tol=1e-6)
        for eps in (0.8, 1.2, 1.6):
            p2 = len(cloud.greedy_net(2 * eps))
            p1 = len(cloud.greedy_net(eps))
            assert p2 <= p1
        counts = [len(cloud.greedy_net(eps)) for eps in (2.4, 1.2, 0.6)]
        assert counts == sorted(counts)  # nonincreasing in eps

    def test_matrix_orbits_saturate(self, rng):
        # power-bounded matrices have precompact orbits, so both the orbit
        # and the difference orbit saturate once the horizon exceeds the
        # filling time of the limit circle (hence max_uni=2: one free
        # rotation; higher torus dimensions fill slower than 400 steps)
        for _ in range(5):
            op, _, _ = random_power_bounded(rng, dim=6, max_uni=2)
            x = FiniteVector(rng.standard_normal(6) + 1j * rng.standard_normal(6))
            eps = max(0.75 * x.norm(), 0.3)
            rep = compactness_diagnostic(op, x, [eps], [200, 400, 800], tol=1e-6)
            y = FiniteVector(x.coords - op.entries @ x.coords, x.norm_tag)
            eps_diff = max(0.75 * y.norm(), 0.2)
            drep = difference_compactness_diagnostic(op, x, [eps_diff],
                                                     [200, 400, 800], tol=1e-6)
            assert rep.verdict == "saturating"
            assert drep.verdict == "saturating"

    def test_reflexive_model_difference_implies_orbit(self, rng):
        # difference-orbit saturation forces orbit saturation for
        # power-bounded matrices (the desk model of the reflexive case)
        for _ in range(5):
            op, _, _ = random_power_bounded(rng, dim=6)
            mean_ergodic_projection(op)  # certified mean ergodic, or it raises
            x = FiniteVector(rng.standard_normal(6) + 1j * rng.standard_normal(6))
            eps = max(x.norm() / 2, 0.3)
            drep = difference_compactness_diagnostic(op, x, [eps / 2],
                                                     [100, 200, 400], tol=1e-6)
            rep = compactness_diagnostic(op, x, [eps], [100, 200, 400], tol=1e-6)
            if drep.verdict == "saturating":
                assert rep.verdict == "saturating"

    def test_root_symbol_asymmetry(self):
        # m = 2: the square-difference orbit saturates while the cloud of
        # (I - T) 1 contains the non-c0 vector 1 - (a_k) whose orbit grows
        op = m2_op()
        one = constant_one()
        y_sq = lin_comb([1.0, -1.0], [one, op.power(2).apply(one)])
        nsq, _ = sup_norm(y_sq, 1e-9)
        rep_sq = cloud_diagnostic(orbit(op, y_sq, 400, tol=1e-8),
                                  [1.25 * nsq], [100, 200, 400])
        assert rep_sq.verdict == "saturating"
        y = lin_comb([1.0, -1.0], [one, op.apply(one)])
        assert abs(y.limit - 2.0) < 1e-14
        rep_y = cloud_diagnostic(orbit(op, y, 400, tol=1e-8), [1.0], [100, 200, 400])
        assert rep_y.verdict == "growing"


def _recorded(separated, pairs):
    """``separated``, recording each pair it decides, unordered."""
    def decide(a, b):
        pairs.add(frozenset((a, b)))
        return separated(a, b)
    return decide


def _check_net(cloud, ref, epsilons):
    """The cloud's net equals the point-by-point reference at every eps and
    cap; uncapped, it also decides the reference's pairs."""
    for eps in epsilons:
        for cap in (None, 1, 3):
            got, want = set(), set()
            real = cloud._apart

            def apart(member, candidates, eps):
                got.update(frozenset((cloud.labels[member], cloud.labels[c]))
                           for c in candidates.tolist())
                return real(member, candidates, eps)

            cloud._apart = apart
            net = cloud.greedy_net(eps, cap)
            del cloud._apart
            assert net == ref_net(cloud.labels, _recorded(ref(eps), want), cap)
            if cap is None:
                assert got == want


@pytest.mark.parametrize("family", ["two rotations", "harmonic t and t^2"])
def test_diagonal_family_net_equals_the_reference(family):
    # the orbit cloud of each operator of the family
    if family == "two rotations":
        ops = [DiagonalOperator(constant_symbol(2 * np.pi * a), "c")
               for a in (0.618033988749, 0.414213562373)]
        x = constant_one()
    else:
        t = DiagonalOperator(harmonic_symbol(1.0), "c")
        ops, x = [t, t.power(2)], from_prefix([0.5, 1j, -2.0], 1.0)
    for op in ops:
        cloud = orbit(op, x, 30, tol=1e-3)
        dists = sorted({cloud.distance(a, b) for a in cloud.labels for b in cloud.labels
                        if a < b})
        val, err = max(dists, key=lambda r: r[1])
        # distances (each at the boundary of ">"), one inside the widest
        # certified bracket, and one between the distances
        epsilons = [dists[len(dists) // 5][0], dists[len(dists) // 2][0], val + err / 2, 1.0]
        for eps in epsilons:
            for cap in (None, 1, 3):
                assert (cloud.greedy_net(eps, cap)
                        == ref_net(cloud.labels, scan_decisions(cloud, eps), cap))


@pytest.mark.parametrize("tag", ["euclidean", "sup"])
def test_matrix_net_equals_the_reference(rng, tag):
    op = commuting_matrix_family(rng, m=1, norm_tag=tag)[0]
    x = FiniteVector(rng.standard_normal(8) + 1j * rng.standard_normal(8), tag)
    cloud = orbit(op, x, 30, tol=1e-9)
    points, cur = {}, x.coords
    for n in cloud.labels:  # formed apart from the cloud
        cur = op.entries @ cur
        points[n] = cur

    def ref(eps):  # one pair at a time
        def separated(a, b):
            v, rho = stacked_norms(points[a] - points[b], tag)
            return v * (1.0 - rho) > eps
        return separated

    pairs = [(a, b) for a in cloud.labels for b in cloud.labels[a:]]
    norms, rho = stacked_norms(np.array([points[a] - points[b] for a, b in pairs]), tag)
    # quantiles of the distances, and one inside the rounding bracket of
    # the first two points, a pair every net decides: it straddles, a "no"
    inside = float(norms[0] * (1.0 - rho / 2))
    assert norms[0] > inside and not ref(inside)(*pairs[0])
    epsilons = [float(np.quantile(norms, q)) for q in (0.2, 0.5, 0.8)] + [inside]
    _check_net(cloud, ref, epsilons)


def test_clouds_of_one_operator_share_its_phase_range():
    op = DiagonalOperator(harmonic_symbol(1.0), "c")
    a = orbit(op, constant_one(), 10)
    b = difference_orbit(op, basis_vector(3), 20)
    assert a._phases is b._phases is op.phase_range
    assert isinstance(op.phase_range, PhaseRange)
    assert DiagonalOperator(harmonic_symbol(1.0), "c").phase_range is not op.phase_range


def test_report_serialisation_shape():
    rep = compactness_diagnostic(harmonic_op(), constant_one(), [1.0, 2.5],
                                 [20, 40, 80], tol=1e-6)
    doc = report_value(rep)
    assert doc["verdict"] in ("saturating", "growing", "inconclusive")
    rows = rep.csv_rows()
    assert rows[0] == ("horizon", "epsilon", "packing")
    assert len(rows) == 1 + 2 * 3
