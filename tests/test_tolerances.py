"""A run has one tolerance: ``[run] tol`` (or ``run --tol``).

Every tolerance-taking ``run`` diagnostic hands that value to its entry
point unchanged, and the report prints the value the entry point
received.  No source line raises a requested tolerance to a floor.
"""

import ast
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from orbitlab import cli
from orbitlab.operators import MatrixOperator, write_matrix_file

SRC = Path(__file__).resolve().parents[1] / "src" / "orbitlab"

# diagnostic -> (operator section, probe section, diagnostic section, cli entry point)
DIAGNOSTICS = {
    "compactness": ("kind = harmonic", "kind = one",
                    "op = compactness\nhorizons = 10 20 40", "compactness_diagnostic"),
    "difference-compactness": ("kind = harmonic", "kind = one",
                               "op = difference-compactness\nhorizons = 10 20 40",
                               "difference_compactness_diagnostic"),
    "matrix-mean-ergodic": ("kind = matrix\npath = m.txt", "kind = one",
                            "op = mean-ergodic", "decomposition_check"),
    "matrix-jdlg": ("kind = matrix\npath = m.txt", "kind = one", "op = jdlg", "jdlg_split"),
    "ktz": ("kind = matrix\npath = m.txt", "kind = one", "op = ktz", "ktz_check"),
    "halfsum": ("kind = matrix\npath = m.txt", "kind = one", "op = halfsum", "half_sum"),
    "witness": ("kind = harmonic", "kind = one", "op = witness\ncount = 2\nhorizon = 400",
                "c0_witness"),
}


def _config(tmp_path, operator, probe, diagnostic, matrix=(1.0, 0.5, 0.25)):
    write_matrix_file(tmp_path / "m.txt",
                      MatrixOperator(np.diag(matrix).astype(np.complex128)))
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\nname = r\n[operator]\n{operator}\n[probe]\n{probe}\n"
                   f"[diagnostic]\n{diagnostic}\n")
    return cfg


def test_no_tolerance_floor_in_src():
    """No ``max(...)`` call takes ``tol`` together with a numeric literal."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "max"):
                continue
            names = {n.id for a in node.args for n in ast.walk(a) if isinstance(n, ast.Name)}
            literal = any(isinstance(a, ast.Constant) and isinstance(a.value, (int, float))
                          for a in node.args)
            if "tol" in names and literal:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


@pytest.mark.parametrize("tol", [1e-6, 1e-12])
@pytest.mark.parametrize("which", sorted(DIAGNOSTICS))
def test_entry_point_receives_the_printed_tol(tmp_path, monkeypatch, capsys, which, tol):
    operator, probe, diagnostic, entry = DIAGNOSTICS[which]
    real = getattr(cli, entry)
    received = []

    def recording(*args, **kwargs):
        received.append(inspect.signature(real).bind(*args, **kwargs).arguments["tol"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, entry, recording)
    cfg = _config(tmp_path, operator, probe, diagnostic)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--tol", repr(tol),
                     "--out-dir", str(out)]) in (0, 1)
    report = json.loads((out / "r.json").read_text())
    assert received == [report["tol"]] == [tol]


def test_ktz_fails_below_its_decay(tmp_path, capsys):
    # the decay 0.1 * 0.9**200 (about 7e-11) and the limit defect 0.9**200
    # (about 7e-10) pass at the default 1e-8, not at 1e-15
    cfg = _config(tmp_path, "kind = matrix\npath = m.txt", "kind = one", "op = ktz",
                  matrix=(1.0, 0.9))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--tol", "1e-15",
                     "--out-dir", str(out)]) == 1
    report = json.loads((out / "r.json").read_text())
    assert report["tol"] == 1e-15 and report["results"]["ktz"]["passed"] is False


def test_halfsum_prints_the_run_tol(tmp_path, capsys):
    cfg = _config(tmp_path, "kind = matrix\npath = m.txt", "kind = one", "op = halfsum")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--tol", "1e-12",
                     "--out-dir", str(out)]) == 0
    report = json.loads((out / "r.json").read_text())
    assert report["results"]["spectrum"]["peri_tol"] == 1e-12


def test_ktz_tol_key_is_a_usage_error(tmp_path, capsys):
    cfg = _config(tmp_path, "kind = matrix\npath = m.txt", "kind = one",
                  "op = ktz\nktz_tol = 1e-9")
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "[run] tol" in err[0], err
    assert not out.exists()


def test_demo_takes_no_tol(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["demo", "ktz", "--tol", "1e-3", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert cli.main(["demo", "ktz", "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "ktz.json").read_text())
    assert "tol" not in report and report["config"] == {"demo": "ktz", "seed": 2026}
