import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orbitlab import cli
from orbitlab.cli import _probe_spec, load_config, main, report_value
from orbitlab.ergodic import MeanErgodicVerdict, SpectrumReport
from orbitlab.errors import UnreachableToleranceError
from orbitlab.gallery import BpReport, WitnessAudit, operator_from_spec, probe_from_spec
from orbitlab.jdlg import DiagonalJdlgReport
from orbitlab.operators import MatrixOperator, write_matrix_file
from orbitlab.orbits import CompactnessReport


def run_cli(*args):
    return main(list(args))


def _assert_one_line_error(capsys):
    """The command printed one ``error:`` line on stderr and nothing on stdout."""
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("error: "), err


class TestDemo:
    def test_unknown_demo_is_usage_error(self, capsys):
        assert run_cli("demo", "nosuchdemo") == 2

    def test_parser_is_built_once(self, monkeypatch, capsys):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        try:
            assert [run_cli("demo", "nosuchdemo") for _ in range(3)] == [2, 2, 2]
            with pytest.raises(SystemExit) as exc:
                run_cli("demo")  # a usage error from the reused parser
            assert exc.value.code == 2
        finally:
            cli._parser.cache_clear()
        assert built == [1]

    def test_ktz_demo(self, tmp_path, capsys):
        code = run_cli("demo", "ktz", "--out-dir", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "ktz.json").read_text())
        assert report["schema_version"] == 2
        assert all(a["passed"] for a in report["assertions"])
        rows = (tmp_path / "ktz.decay.csv").read_text().strip().splitlines()
        assert rows[0] == "n,decay,expected"
        assert len(rows) == 1 + 200
        assert (tmp_path / "ktz.timing.json").exists()

    def test_limit_one_demo_report(self, tmp_path, capsys):
        code = run_cli("demo", "example33", "--out-dir", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "example33.json").read_text())
        assert report["results"]["orbit_diagnostic"]["verdict"] == "growing"
        assert report["results"]["c0_probe_diagnostic"]["verdict"] == "saturating"
        assert not report["results"]["mean_ergodic_verdict"]["is_mean_ergodic"]

    def test_root_demo_report(self, tmp_path, capsys):
        code = run_cli("demo", "example43", "--out-dir", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "example43.json").read_text())
        res = report["results"]
        assert res["square_difference_diagnostic"]["verdict"] == "saturating"
        assert res["one_minus_symbol_diagnostic"]["verdict"] == "growing"
        assert abs(res["one_minus_symbol_limit"][0] - 2.0) < 1e-12

    def test_witness_demo_writes_certificate(self, tmp_path, capsys):
        code = run_cli("demo", "witness", "--out-dir", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "witness.json").read_text())
        audit = report["results"]["audit"]
        assert audit["exhausted"] is True
        assert audit["achieved_count"] >= 1
        assert all(v >= 1.0 - 1e-6 for v in audit["ladder_norms"])
        cert = tmp_path / "witness.certificate.json"
        assert cert.exists()
        assert run_cli("verify-certificate", str(cert)) == 0

    def test_halfsum_demo(self, tmp_path, capsys):
        code = run_cli("demo", "halfsum", "--out-dir", str(tmp_path))
        assert code == 0

    def test_format_selection(self, tmp_path, capsys):
        only_json = tmp_path / "j"
        assert run_cli("demo", "ktz", "--out-dir", str(only_json), "--json") == 0
        assert (only_json / "ktz.json").exists()
        assert not (only_json / "ktz.decay.csv").exists()
        only_csv = tmp_path / "c"
        assert run_cli("demo", "ktz", "--out-dir", str(only_csv), "--csv") == 0
        assert not (only_csv / "ktz.json").exists()
        assert (only_csv / "ktz.decay.csv").exists()


class TestRun:
    def _write(self, tmp_path, text, name="run.ini"):
        p = tmp_path / name
        p.write_text(text)
        return p

    def test_zero_limit_prefix_probe_runs_on_c0(self, tmp_path, capsys):
        # a finitely supported vector has a compact orbit: its packing saturates
        cfg = self._write(tmp_path, """
[run]
name = c0prefix

[operator]
kind = harmonic
space = c0

[probe]
kind = prefix
values = 1,0 0,1 -0.5,0

[diagnostic]
op = compactness
epsilons = 0.5
horizons = 50 100 200
""")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out-dir", str(out)) == 0
        report = json.loads((out / "c0prefix.json").read_text())
        assert report["results"]["diagnostic"]["verdict"] == "saturating"

    def test_root_of_order_one_has_the_harmonic_verdict(self, tmp_path, capsys):
        # m = 1 is the harmonic symbol: the limit angle 2 pi reduces to 0, so
        # the limit is 1 exactly and the verdict is the harmonic one
        verdicts = []
        for name, operator in (("harm", "kind = harmonic"),
                               ("root1", "kind = root_perturbed\nm = 1")):
            cfg = self._write(tmp_path, f"[run]\nname = {name}\n[operator]\n{operator}\n"
                                        "rate = 1.3\n[diagnostic]\nop = mean-ergodic\n",
                              name=f"{name}.ini")
            capsys.readouterr()
            assert run_cli("run", "--config", str(cfg), "--out-dir", str(tmp_path)) == 0
            assert capsys.readouterr().err == ""
            verdicts.append(json.loads((tmp_path / f"{name}.json").read_text())
                            ["results"]["verdict"])
        for v in verdicts:
            assert v["is_mean_ergodic"] is False
            assert v["reason"] == "limit-functional-obstruction"
            assert v["evidence"]["fixed_indices"] == []

    def test_basis_probe_past_the_first_block(self, tmp_path, capsys):
        # T^n e_100 = a_100^n e_100 with |1 - a_100^d| = 2 sin(pi d / 200):
        # points 17 apart are 0.5-separated, so the packing grows
        cfg = self._write(tmp_path, """
[run]
name = basis100

[operator]
kind = harmonic

[probe]
kind = basis
index = 100

[diagnostic]
op = compactness
epsilons = 0.5
horizons = 10 20 40
""")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out-dir", str(out)) == 0
        report = json.loads((out / "basis100.json").read_text())["results"]["diagnostic"]
        assert report["packing"] == [[1, 2, 3]]
        assert report["verdict"] == "growing"

    def test_compactness_csv_shape(self, tmp_path, capsys):
        cfg = self._write(tmp_path, """
[run]
name = smoke
seed = 7
tol = 1e-8

[operator]
kind = harmonic

[probe]
kind = one

[diagnostic]
op = compactness
epsilons = 1.0
horizons = 20 40 80
""")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out-dir", str(out)) == 0
        rows = (out / "smoke.diagnostic.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 3  # header + one row per horizon per epsilon

    def test_decreasing_horizons_rejected(self, tmp_path, capsys):
        cfg = self._write(tmp_path, """
[operator]
kind = harmonic

[diagnostic]
op = compactness
epsilons = 1.0
horizons = 100 50 200
""")
        assert run_cli("run", "--config", str(cfg)) == 2

    def test_matrix_halfsum_spectrum(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        op = MatrixOperator(g / np.linalg.norm(g, 2))
        write_matrix_file(tmp_path / "contraction.txt", op)
        cfg = self._write(tmp_path, """
[run]
name = spec4

[operator]
kind = matrix
path = contraction.txt
norm = euclidean

[diagnostic]
op = halfsum
""")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out-dir", str(out)) == 0
        report = json.loads((out / "spec4.json").read_text())
        assert len(report["results"]["spectrum"]["eigenvalues"]) == 4

    def test_halfsum_assertion_reads_the_run_tol(self, tmp_path, capsys):
        # half_sum accepts the eigenvalue (1 + e^{i 1e-7}) / 2, 5e-8 from 1, at
        # tol 1e-6; the report's assertion tests it at the same tol
        write_matrix_file(tmp_path / "m.txt", MatrixOperator(np.diag([np.exp(1e-7j), 0.5])))
        cfg = self._write(tmp_path, """
[operator]
kind = matrix
path = m.txt

[diagnostic]
op = halfsum
""")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--tol", "1e-6", "--out-dir", str(out)) == 0
        assert "[ok] run.halfsum_peripheral_in_one" in capsys.readouterr().out

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        assert run_cli("run", "--config", str(tmp_path / "absent.ini")) == 3

    def test_unreadable_config_is_one_line_io_error(self, tmp_path, capsys):
        # a directory exists but cannot be read as a config: an I/O error
        # that says why, not "not found"
        (tmp_path / "cfgdir.ini").mkdir()
        assert run_cli("run", "--config", str(tmp_path / "cfgdir.ini")) == 3
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and len(err) == 1, err
        assert err[0].startswith("error: cannot read config: ") and "not found" not in err[0]

    def test_uncertified_cesaro_constant_is_null(self, tmp_path, capsys):
        # at m = 10^7 the certified symbol gap is 0, so the C/n constant is not
        # certified: the report prints null and no inf
        cfg = self._write(tmp_path, """
[run]
name = me7

[operator]
kind = root_perturbed
m = 10000000

[diagnostic]
op = mean-ergodic
""")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out-dir", str(out)) == 0
        evidence = json.loads((out / "me7.json").read_text())["results"]["verdict"]["evidence"]
        assert evidence["symbol_gap"] == 0.0
        assert evidence["cesaro_norm_bound_constant"] is None

    def test_config_not_utf8_is_one_line_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_bytes(b"[operator]\nkind = harmonic\n[diagnostic]\nop = jdlg\n# \xff\n")
        assert run_cli("run", "--config", str(cfg)) == 2
        _assert_one_line_error(capsys)

    @pytest.mark.parametrize("path", ["nowhere.txt", "adir"], ids=["missing", "directory"])
    def test_missing_matrix_file_is_io_error(self, tmp_path, capsys, path):
        (tmp_path / "adir").mkdir()
        cfg = self._write(tmp_path, f"""
[operator]
kind = matrix
path = {path}

[diagnostic]
op = halfsum
""")
        assert run_cli("run", "--config", str(cfg)) == 3
        _assert_one_line_error(capsys)

    def test_violated_precondition_is_assertion_failure(self, tmp_path, capsys):
        # ktz on a matrix with peripheral spectrum {1, i} fails its
        # precondition: exit code 1, not a usage error
        op = MatrixOperator(np.diag([1.0, 1j]))
        write_matrix_file(tmp_path / "rot.txt", op)
        cfg = self._write(tmp_path, """
[operator]
kind = matrix
path = rot.txt

[diagnostic]
op = ktz
""")
        assert run_cli("run", "--config", str(cfg)) == 1

    def test_witness_run_reports_partial(self, tmp_path, capsys):
        cfg = self._write(tmp_path, """
[run]
name = wit

[operator]
kind = harmonic

[probe]
kind = one

[diagnostic]
op = witness
count = 2
horizon = 1500
""")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out-dir", str(out)) == 0
        report = json.loads((out / "wit.json").read_text())
        assert report["results"]["audit"]["achieved_count"] == 1


    @pytest.mark.parametrize("operator, probe, diagnostic", [
        ("kind = matrix\npath = m3.txt", "kind = basis\nindex = 0", "op = halfsum"),
        ("kind = matrix\npath = m3.txt", "kind = basis\nindex = 9", "op = halfsum"),
        ("kind = matrix\npath = m3.txt", "kind = nosuch", "op = halfsum"),
        ("kind = matrix\npath = m3.txt", "kind = prefix", "op = halfsum"),
        ("kind = harmonic", "kind = basis\nindex = 0", "op = jdlg"),
        ("kind = harmonic", "kind = prefix", "op = jdlg"),
        ("kind = harmonic\nspace = x", "kind = one", "op = jdlg"),
        ("kind = harmonic", "kind = one", "op = ktz"),
        ("kind = harmonic", "kind = one", "op = spectrum"),
        ("kind = matrix\npath = m3.txt", "kind = one", "op = witness"),
        ("kind = harmonic\nspace = c0", "kind = one", "op = compactness"),
        ("kind = harmonic\nspace = c0", "kind = prefix\nvalues = 1,0 0,1\nlimit = 0.5,0",
         "op = compactness"),
        ("kind = matrix\npath = m3.txt", "kind = one", "op = ktz\nhorizon = 0"),
        ("kind = matrix\npath = m3.txt", "kind = one", "op = ktz\nhorizon = -3"),
        ("kind = harmonic", "kind = one", "op = compactness\nepsilons = nan"),
        ("kind = harmonic", "kind = one", "op = compactness\nepsilons = inf"),
        ("kind = harmonic", "kind = one", "op = compactness\nepsilons ="),
        ("kind = matrix\npath = m3.txt", "kind = one", "op = ktz\nktz_tol = nan"),
        ("kind = matrix\npath = m0.txt", "kind = one", "op = halfsum"),
        ("kind = matrix\npath = m3.txt", "kind = one", "op = compactness\nhorizons = -5 0 5"),
        ("kind = harmonic", "kind = one", "op = difference-compactness\nhorizons = 0 1 2"),
        ("kind = root_perturbed\nm = 0", "kind = one", "op = jdlg"),
        ("kind = root_perturbed\nm = 2.5", "kind = one", "op = jdlg"),
        ("kind = harmonic\nrate = nan", "kind = one", "op = jdlg"),
        ("kind = constant\nangle = inf", "kind = one", "op = jdlg"),
    ], ids=["matrix-index-0", "matrix-index-9", "matrix-unknown-kind", "matrix-no-values",
            "index-0", "no-values", "bad-space", "ktz-diagonal", "spectrum-diagonal",
            "witness-matrix", "c0-one", "c0-prefix-limit", "ktz-horizon-0",
            "ktz-horizon-negative", "epsilons-nan", "epsilons-inf", "epsilons-empty",
            "ktz-tol-nan", "matrix-dimension-0", "horizons-below-one",
            "horizons-from-zero", "root-order-0", "root-order-2.5", "rate-nan",
            "angle-inf"])
    def test_bad_spec_is_one_line_usage_error(self, tmp_path, capsys, operator, probe,
                                              diagnostic):
        write_matrix_file(tmp_path / "m3.txt", MatrixOperator(np.diag([1.0, 0.5, 0.25])))
        (tmp_path / "m0.txt").write_text("0\n")
        cfg = self._write(tmp_path, f"[operator]\n{operator}\n[probe]\n{probe}\n"
                                    f"[diagnostic]\n{diagnostic}\n")
        capsys.readouterr()
        assert run_cli("run", "--config", str(cfg), "--out-dir", str(tmp_path)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not list(tmp_path.glob("*.json"))  # no report written


@pytest.mark.parametrize("where, value", [
    ("config", "nan"), ("config", "inf"), ("run", "nan"), ("run", "inf")])
def test_non_finite_tol_is_one_line_usage_error(tmp_path, capsys, where, value):
    # these used to run every diagnostic and then die in json.dump (exit 1)
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\ntol = {value if where == 'config' else '1e-8'}\n"
                   "[operator]\nkind = harmonic\n[probe]\nkind = one\n"
                   "[diagnostic]\nop = compactness\nhorizons = 10 20 40\n")
    out = tmp_path / "out"
    argv = {"config": ["run", "--config", str(cfg)],
            "run": ["run", "--config", str(cfg), "--tol", value]}[where]
    capsys.readouterr()
    assert run_cli(*argv, "--out-dir", str(out)) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not out.exists()


OPERATOR_SPECS = [
    ("kind = harmonic\nrate = 1.5", {"kind": "harmonic", "rate": 1.5}),
    ("kind = root_perturbed\nm = 3\nrate = 2.0\nspace = c0",
     {"kind": "root_perturbed", "m": 3, "rate": 2.0, "space": "c0"}),
    ("kind = constant\nangle = 0.75", {"kind": "constant", "angle": 0.75}),
]
PROBE_SPECS = [
    ("kind = one", {"kind": "one"}),
    ("kind = basis\nindex = 2", {"kind": "basis", "index": 2}),
    ("kind = prefix\nvalues = 1,0 0,0.5 -0.25,1\nlimit = 0.5,-0.5",
     {"kind": "prefix", "values": [[1.0, 0.0], [0.0, 0.5], [-0.25, 1.0]],
      "limit": [0.5, -0.5]}),
]


@pytest.mark.parametrize("op_ini, op_spec", OPERATOR_SPECS)
@pytest.mark.parametrize("probe_ini, probe_spec", PROBE_SPECS)
def test_ini_and_certificate_specs_build_the_same(tmp_path, op_ini, op_spec, probe_ini,
                                                  probe_spec):
    path = tmp_path / "run.ini"
    path.write_text(f"[operator]\n{op_ini}\n[probe]\n{probe_ini}\n"
                    "[diagnostic]\nop = jdlg\n")
    cfg = load_config(str(path))
    ks = np.arange(1, 65)
    op = operator_from_spec(cfg["operator"], str(tmp_path))
    want_op = operator_from_spec(op_spec)
    assert op.space_tag == want_op.space_tag
    assert op.symbol == want_op.symbol
    assert np.array_equal(op.symbol.angles(ks), want_op.symbol.angles(ks))
    probe = probe_from_spec(_probe_spec(cfg["probe"]), op)
    want = probe_from_spec(probe_spec)
    assert np.array_equal(probe.prefix(64), want.prefix(64))
    assert probe.limit == want.limit
    # a matrix probe is the first dim coordinates of the sequence probe
    write_matrix_file(tmp_path / "m3.txt", MatrixOperator(np.eye(3)))
    mat = operator_from_spec({"kind": "matrix", "path": "m3.txt"}, str(tmp_path))
    assert np.array_equal(probe_from_spec(_probe_spec(cfg["probe"]), mat).coords,
                          want.prefix(3))


class TestVerify:
    @pytest.mark.parametrize("name", ["absent.json", "adir"], ids=["missing", "directory"])
    def test_missing_certificate(self, tmp_path, capsys, name):
        (tmp_path / "adir").mkdir()
        assert run_cli("verify-certificate", str(tmp_path / name)) == 3
        _assert_one_line_error(capsys)

    def test_any_orbitlab_error_is_one_line_error(self, monkeypatch, capsys):
        # as a harmonic ladder entry x - T^d x with d = 10^9 + 1 does after
        # scanning 2^27 coordinates: its norm is out of the scan cap's reach
        def unreachable(path):
            raise UnreachableToleranceError("cannot certify tolerance 1e-08")

        monkeypatch.setattr(cli.gallery, "verify_certificate", unreachable)
        assert run_cli("verify-certificate", "cert.json") == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and len(err) == 1 and err[0].startswith("error: "), err


    def test_backward_pair_is_one_line_error(self, tmp_path, capsys):
        # a pair (s, t) with s < t names the entry x - T^(s - t) x, a negative
        # power: a malformed certificate, reported on one line
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({
            "format": "c0-ladder-certificate", "version": 1,
            "operator": {"kind": "harmonic", "rate": 1.0}, "probe": {"kind": "one"},
            "pairs": [[1, 3]], "prefix_check": {"length": 32, "entries": [{}]}}))
        assert run_cli("verify-certificate", str(cert)) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and len(err) == 1, err
        assert err[0].startswith("error: malformed certificate: "), err
        assert "Traceback" not in captured.err


class TestReportValue:
    """``cli.report_value``, the one serializer of printed report values."""

    def test_complex_scalar_and_array(self):
        assert report_value(1.5 - 2j) == [1.5, -2.0]
        assert report_value(np.complex128(0.5j)) == [0.0, 0.5]
        got = report_value(np.array([[1 + 2j], [3 - 4j]]))
        assert got == [[[1.0, 2.0]], [[3.0, -4.0]]]
        assert all(type(c) is float for row in got for z in row for c in z)

    def test_numpy_scalars_become_python_values(self):
        for value, want in [(np.float64(0.25), 0.25), (np.int64(7), 7), (np.bool_(True), True)]:
            got = report_value(value)
            assert got == want and type(got) is type(want)

    def test_real_arrays_tuples_and_int_keys(self):
        assert report_value({1: (2, 3.0), "k": np.arange(3)}) == {"1": [2, 3.0], "k": [0, 1, 2]}
        assert report_value([None, "s", False]) == [None, "s", False]

    def test_a_field_without_repr_is_left_out(self):
        @dataclasses.dataclass
        class Record:
            shown: complex
            hidden: object = dataclasses.field(default=None, repr=False)

        assert report_value(Record(1j, object())) == {"shown": [0.0, 1.0]}

    def test_unknown_leaf_is_refused(self):
        with pytest.raises(TypeError):
            report_value(object())

    @pytest.mark.parametrize("cls, keys", [
        (CompactnessReport, "description epsilons growth_stats horizons packing verdict"),
        (WitnessAudit, "achieved_count bound_m delta exhausted horizon ladder_norms norms_ok "
                       "notes probe_norm requested_count selection_log subset_bound "
                       "subset_bound_ok subset_sum_bound thresholds"),
        (BpReport, "cauchy_defect first_partial ladder_detected unconditional_bound"),
        (SpectrumReport, "eigenvalues peri_tol peripheral sampled"),
        (MeanErgodicVerdict, "evidence is_mean_ergodic reason"),
        (DiagonalJdlgReport, "aap_space cross_check p_is_identity_on_aap rev_equals_aap"),
    ], ids=lambda v: getattr(v, "__name__", "keys"))
    def test_printed_keys_of_each_report_record(self, cls, keys):
        # a new field of a printed record is a declared report change
        record = cls(**{f.name: None for f in dataclasses.fields(cls)})
        assert sorted(report_value(record)) == keys.split()


class TestUnwritableOutput:
    """An output directory under a regular file is an I/O error: exit 3 and
    one ``error:`` line, with no traceback and no report."""

    @staticmethod
    def _check(tmp_path, capsys, code):
        assert code == 3
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("*.json")) and not list(tmp_path.rglob("*.csv"))

    def test_demo(self, tmp_path, capsys):
        (tmp_path / "F").write_text("")
        code = run_cli("demo", "example33", "--out-dir", str(tmp_path / "F" / "sub"))
        self._check(tmp_path, capsys, code)

    def test_run(self, tmp_path, capsys):
        write_matrix_file(tmp_path / "m.txt", MatrixOperator(np.diag([1.0, 0.5])))
        (tmp_path / "c.ini").write_text(
            "[operator]\nkind = matrix\npath = m.txt\n\n[diagnostic]\nop = spectrum\n")
        (tmp_path / "F").write_text("")
        code = run_cli("run", "--config", str(tmp_path / "c.ini"),
                       "--out-dir", str(tmp_path / "F" / "sub"))
        self._check(tmp_path, capsys, code)

    def test_verify_certificate(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli.gallery, "verify_certificate", lambda path: {"ok": True})
        (tmp_path / "F").write_text("")
        code = run_cli("verify-certificate", "cert.json", "--out-dir", str(tmp_path / "F" / "sub"))
        self._check(tmp_path, capsys, code)


# run in a fresh interpreter: this test process may have loaded scipy already
_SCIPY_PROBE = """
import json, sys
import orbitlab.cli, orbitlab.ergodic, orbitlab.jdlg
from orbitlab.cli import main
out, diag, mat, split = sys.argv[1:]
codes = [main(["demo", "example33", "--out-dir", out]),
         main(["run", "--config", diag, "--out-dir", out]),
         main(["demo", "ktz", "--out-dir", out]),
         main(["run", "--config", mat, "--out-dir", out]),
         main(["run", "--config", split, "--out-dir", out])]
print(json.dumps([codes, "scipy" in sys.modules]))
"""


def test_no_run_loads_scipy(tmp_path):
    (tmp_path / "diag.ini").write_text(
        "[operator]\nkind = root_perturbed\nm = 3\n\n[diagnostic]\nop = mean-ergodic\n")
    write_matrix_file(tmp_path / "m.txt", MatrixOperator(np.diag([1.0, 0.5])))
    for name, op in (("mat", "mean-ergodic"), ("split", "jdlg")):
        (tmp_path / f"{name}.ini").write_text(
            f"[operator]\nkind = matrix\npath = m.txt\n\n[diagnostic]\nop = {op}\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path / "out")]
        + [str(tmp_path / f"{name}.ini") for name in ("diag", "mat", "split")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    codes, scipy_loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * 5, proc.stderr
    assert not scipy_loaded


def test_no_module_imports_scipy():
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "orbitlab").glob("*.py"))
    assert len(paths) > 1
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), (path.name, node.lineno)
