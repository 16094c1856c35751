import numpy as np
import pytest

from orbitlab.errors import (CertificateError, HorizonExhaustedError,
                             NotApplicableError)
from orbitlab.gallery import (bp_test, c0_witness,
                              limit_one_operator, one_minus_symbol_vector,
                              operator_from_spec, probe_from_spec,
                              root_limit_operator, verify_certificate,
                              write_certificate)
from orbitlab.jdlg import diagonal_jdlg
from orbitlab.operators import DiagonalOperator, constant_symbol, power_apply
from orbitlab.orbits import compactness_diagnostic, orbit
from orbitlab.seqspace import (basis_vector, constant_one, lin_comb,
                               sup_norm)


class TestBuilders:
    def test_limit_one_operator(self):
        op = limit_one_operator()
        assert op.symbol.limit_value == 1
        assert op.symbol.unit_fixed_indices == ()

    def test_root_operator(self):
        op = root_limit_operator(2)
        assert abs(op.symbol.limit_value + 1.0) < 1e-14
        y = one_minus_symbol_vector(op)
        assert abs(y.limit - 2.0) < 1e-14

    def test_root_rejects_m_one(self):
        with pytest.raises(ValueError):
            root_limit_operator(1)

    def test_square_difference_has_zero_limit(self):
        op = root_limit_operator(2)
        one = constant_one()
        y_sq = lin_comb([1.0, -1.0], [one, op.power(2).apply(one)])
        assert abs(y_sq.limit) < 1e-14

    def test_first_basis_orbit_is_two_points(self):
        op = limit_one_operator()
        cloud = orbit(op, basis_vector(1), 40, tol=1e-8)
        assert len(cloud.greedy_net(0.5)) <= 2


class TestIsometryInvariants:
    def test_norm_preserved_along_orbit(self):
        op = limit_one_operator()
        rng = np.random.default_rng(11)
        v = lin_comb([1.0, 0.5j], [constant_one(), basis_vector(3, "c")])
        base, base_err = sup_norm(v, 1e-9)
        for n in rng.integers(1, 1000, size=8):
            out = power_apply(op, int(n), v)
            val, err = sup_norm(out, 1e-9)
            assert abs(val - base) <= base_err + err + 1e-11

    def test_inverse_round_trip(self):
        op = limit_one_operator()
        v = basis_vector(4)
        back = op.power(-1).apply(op.apply(v))
        val, _ = sup_norm(lin_comb([1.0, -1.0], [back, v]), 1e-12)
        assert val <= 1e-12


class TestWitness:
    def test_not_applicable_on_compact_orbit(self):
        op = limit_one_operator()
        with pytest.raises(NotApplicableError):
            c0_witness(op, basis_vector(1, "c"), 3, 500)

    def test_not_applicable_for_rotation(self):
        op = DiagonalOperator(constant_symbol(2 * np.pi * 0.618), "c")
        with pytest.raises(NotApplicableError):
            c0_witness(op, constant_one(), 3, 500)

    def test_single_entry_ladder(self):
        op = limit_one_operator()
        audit = c0_witness(op, constant_one(), 1, 2000, tol=1e-6)
        assert audit.achieved_count == 1 and not audit.exhausted
        assert audit.delta == pytest.approx(2.0, abs=1e-9)
        assert audit.bound_m == 2.0
        # delta/M <= ||x_1|| <= 2 M ||x||
        assert audit.delta / audit.bound_m - 1e-9 <= audit.ladder_norms[0] \
            <= 2 * audit.bound_m * audit.probe_norm + 1e-9
        assert audit.norms_ok and audit.subset_bound_ok

    def test_ladder_entries_live_in_c0(self):
        op = limit_one_operator()
        audit = c0_witness(op, constant_one(), 1, 2000, tol=1e-6)
        for v in audit.ladder:
            assert v.limit == 0

    def test_exhaustion_carries_partial_audit(self):
        # the second smallness threshold (1/8) is unreachable within any
        # desk horizon, so the selection honestly exhausts after one entry
        op = limit_one_operator()
        with pytest.raises(HorizonExhaustedError) as info:
            c0_witness(op, constant_one(), 3, 3000, tol=1e-6)
        audit = info.value.audit
        assert audit.exhausted and audit.achieved_count == 1
        assert audit.requested_count == 3
        assert audit.norms_ok and audit.subset_bound_ok
        assert audit.selection_log == ((2, 1),)

    def test_joint_orbit_rule(self):
        # extraction is not applicable on a rotation, whose orbit lies on a
        # circle, and finds a ladder entry on the harmonic operator
        rot = DiagonalOperator(constant_symbol(2 * np.pi * 0.618), "c")
        with pytest.raises(NotApplicableError):
            c0_witness(rot, constant_one(), 2, 400)

        harm = limit_one_operator()
        audit = c0_witness(harm, constant_one(), 1, 2000)
        assert audit.achieved_count == 1

    def test_identity_projection_certified_for_isometries(self):
        # the stable part is trivial for the catalogued isometry families,
        # so the witness precondition on the projection is vacuous
        for op in (limit_one_operator(),
                   root_limit_operator(2)):
            rep = diagonal_jdlg(op, cross_check=False)
            assert rep.p_is_identity_on_aap


class TestBpTest:
    def test_basis_ladder_detected(self):
        ladder = [basis_vector(k) for k in range(1, 21)]
        rep = bp_test(ladder, tol=1e-6)
        assert rep.ladder_detected
        assert rep.unconditional_bound == pytest.approx(1.0, abs=1e-9)
        assert rep.cauchy_defect == pytest.approx(1.0, abs=1e-9)

    def test_summable_series_not_detected(self):
        ladder = [lin_comb([0.5 ** k], [basis_vector(k)]) for k in range(1, 41)]
        rep = bp_test(ladder, tol=1e-6)
        assert not rep.ladder_detected  # cauchy defect collapses

    def test_unbounded_sums_not_detected(self):
        ladder = [lin_comb([float(k)], [basis_vector(1)]) for k in range(1, 21)]
        rep = bp_test(ladder, tol=1e-6)
        assert not rep.ladder_detected

    def test_witness_ladder_statistics(self):
        op = limit_one_operator()
        x = constant_one()
        # hand-built two-entry ladder of orbit differences
        ladder = [lin_comb([1.0, -1.0], [x, power_apply(op, d, x)]) for d in (1, 5040)]
        rep = bp_test(ladder, tol=1e-6)
        assert rep.cauchy_defect >= 1.0
        assert rep.unconditional_bound <= 5.0 + 1e-6

    def test_needs_two_vectors(self):
        with pytest.raises(ValueError):
            bp_test([basis_vector(1)])


class TestCertificates:
    def test_roundtrip_and_verify(self, tmp_path):
        op = limit_one_operator()
        audit = c0_witness(op, constant_one(), 1, 2000, tol=1e-6)
        path = tmp_path / "cert.json"
        write_certificate(path, audit, {"kind": "harmonic", "rate": 1.0, "space": "c"},
                          {"kind": "one"})
        report = verify_certificate(path)
        assert report["prefix_ok"] and report["pairs"] == 1

    def test_tampered_certificate_rejected(self, tmp_path):
        import json
        op = limit_one_operator()
        audit = c0_witness(op, constant_one(), 1, 2000, tol=1e-6)
        path = tmp_path / "cert.json"
        write_certificate(path, audit, {"kind": "harmonic", "rate": 1.0, "space": "c"},
                          {"kind": "one"})
        doc = json.loads(path.read_text())
        doc["pairs"] = [[3, 1]]
        path.write_text(json.dumps(doc))
        with pytest.raises(CertificateError):
            verify_certificate(path)
        doc["pairs"] = [[2, 1], [3, 1]]  # more pairs than prefix entries
        path.write_text(json.dumps(doc))
        with pytest.raises(CertificateError):
            verify_certificate(path)

    def test_certificate_records_the_audited_ladder(self, tmp_path, capsys):
        # an audit of the rate-1 harmonic operator written under a rate-2 spec:
        # the certificate stores the audited entries, which the rate-2
        # reconstruction does not match
        import json
        from orbitlab.cli import main
        audit = c0_witness(limit_one_operator(1.0), constant_one(), 1, 2000, tol=1e-6)
        path = tmp_path / "cert.json"
        write_certificate(path, audit, {"kind": "harmonic", "rate": 2.0, "space": "c"},
                          {"kind": "one"})
        stored = json.loads(path.read_text())["prefix_check"]["entries"][0]["prefix"]
        assert [complex(re, im) for re, im in stored] == audit.ladder[0].prefix(32).tolist()
        with pytest.raises(CertificateError, match="prefixes do not match"):
            verify_certificate(path)
        capsys.readouterr()
        assert main(["verify-certificate", str(path)]) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and err == [
            "error: certificate prefixes do not match the reconstruction"], err

    @pytest.mark.parametrize("field, value", [
        ("pairs", None),
        ("probe", {"kind": "basis"}),  # index defaults to 1: e_1 fails the prefixes
        ("version", "one"),
        ("operator", {"kind": "harmonic", "rate": 1.0, "space": "x"}),
        ("operator", {"kind": "harmonic", "rate": -1.0}),
        ("operator", {"kind": "matrix", "path": "absent.txt"}),
        ("operator", {"kind": "harmonic", "rate": 1.0, "space": "c0"}),  # probe is one
        (None, b"\xff\xfe not utf-8"),  # the whole file
        (None, b"{not json"),
        # a length no stored prefix holds is rejected before any prefix is built
        ("prefix_check.length", 10**12),
        ("prefix_check.length", 2**62),
    ], ids=["no-pairs", "no-index", "bad-version", "bad-space", "negative-rate", "matrix",
            "c0-one-probe", "not-utf-8", "not-json", "length-1e12", "length-2^62"])
    def test_malformed_certificate_is_one_line_error(self, tmp_path, capsys, field, value):
        import json
        from orbitlab.cli import main
        op = limit_one_operator()
        audit = c0_witness(op, constant_one(), 1, 2000, tol=1e-6)
        path = tmp_path / "cert.json"
        write_certificate(path, audit, {"kind": "harmonic", "rate": 1.0, "space": "c"},
                          {"kind": "one"})
        doc = json.loads(path.read_text())
        if field is None:
            path.write_bytes(value)
        elif field == "prefix_check.length":
            doc["prefix_check"]["length"] = value
            path.write_text(json.dumps(doc))
        else:
            if value is None:
                del doc[field]
            else:
                doc[field] = value
            path.write_text(json.dumps(doc))
        with pytest.raises(CertificateError):
            verify_certificate(path)
        capsys.readouterr()
        assert main(["verify-certificate", str(path)]) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and len(err) == 1 and err[0].startswith("error: "), err

    def test_spec_builders(self):
        op = operator_from_spec({"kind": "root_perturbed", "m": 2, "rate": 1.0})
        assert abs(op.symbol.limit_value + 1) < 1e-14
        v = probe_from_spec({"kind": "basis", "index": 3})
        assert v.coords([3])[0] == 1.0
        w = probe_from_spec({"kind": "prefix", "values": [[1.0, 0.0], [0.0, 0.5]],
                             "limit": [0.0, 0.0]})
        assert w.coords([2])[0] == 0.5j


class TestGalleryDiagnostics:
    def test_limit_one_scenario(self):
        # orbit of the constant sequence grows, difference probes saturate
        op = limit_one_operator()
        one = constant_one()
        grow = compactness_diagnostic(op, one, [1.0], [50, 100, 200], tol=1e-8)
        assert grow.verdict == "growing"
        for n in (1, 2, 5):
            diff = lin_comb([1.0, -1.0], [one, power_apply(op, n, one)])
            assert diff.limit == 0  # rg(I - T^n) lands in c0

    def test_root_scenario_asymmetry_vector(self):
        op = root_limit_operator(2)
        one = constant_one()
        y = one_minus_symbol_vector(op)
        y_sq = lin_comb([1.0, -1.0], [one, op.power(2).apply(one)])
        assert abs(y.limit - 2.0) < 1e-14 and abs(y_sq.limit) < 1e-14
