"""Golden sha256 digests of the five demo reports and of eleven ``run``
reports.

Every demo runs through ``orbitlab.cli.main`` at a fixed seed, and every
run config below through ``orbitlab.cli.main run``; each file they write
except the ``*.timing.json`` sidecar must hash to the digest recorded
here, and the exit code must match.  The only path a report holds is the
certificate path in ``witness.json`` (an assertion detail), so the
out-dir is replaced by a fixed token before hashing.  The run configs
cover the diagonal decision paths the demos miss: a two-epsilon
difference-orbit net whose differences go through head proofs,
first-block exits and longer scans; a saturating difference-orbit net at
h = 600 whose open differences scan past the first block (over a hundred
of them); an orbit net on c0 with a basis probe; a witness ladder at
h = 410; a witness ladder at h = 1500, whose pair search crosses a phase
block (its second entry is d = 1152) and decides its product clouds at
two thresholds; a two-epsilon difference-orbit net at h = 1200 whose
larger epsilon completes the heads of 250 differences the smaller one
proved from their lead coordinates; and the mean-ergodic verdicts of the
root-perturbed symbols of order 2 (whose a_1 is exactly 1) and of order 1
(the harmonic symbol, whose limit angle 2 pi reduces to 0).  Three more
pin the matrix kernels: the mean-ergodic decomposition of a seeded
power-bounded matrix in each norm tag (its Cesaro constant reads the
largest 2-norm or row-sum norm of a^1 .. a^200) and the reversible/stable
split of another.  Their matrix files are written from fixed seeds next
to the config and named by a relative path, so no checkout path enters
the report.

A change that moves a report byte must update the digest and declare the
moved values.  The matrix reports (``ktz``, ``halfsum`` and the matrix runs) go through LAPACK,
so a different numpy/LAPACK build may move their last digits; the digests
were taken with numpy 2.4 and its bundled OpenBLAS.
"""

import hashlib
import textwrap

import numpy as np
import pytest

from conftest import random_power_bounded
from orbitlab import cli
from orbitlab.operators import write_matrix_file

SEED = 2026

DIGESTS = {
    "example33": (0, {
        "example33.c0_probe.csv": "82029a06fe84b65adc7b17a2ea0e8097e1b71118f1c24c257d9fcbba1399e0ce",
        "example33.json": "a8e7b2c73f187be6e62f1680ddc3ec9a2cf739e7c00c74f23b94884c940afe6d",
        "example33.orbit.csv": "a262d30583845908e95cf09df2e237afb324e3944df0c45f9a28a1a43f1c9b48",
    }),
    "example43": (0, {
        "example43.json": "92cf9e55c124e5c7ec0dc97d7f17aa693e6bfe56a665ed9137cf9af241676000",
        "example43.one_minus_symbol.csv": "a262d30583845908e95cf09df2e237afb324e3944df0c45f9a28a1a43f1c9b48",
        "example43.square_difference.csv": "1d06bb95d1bf6ec89fe113ede706856d22ef4aef3ff9d090158106d8323f2253",
    }),
    "witness": (0, {
        "witness.certificate.json": "079416499965849d0516d6a85646c97137ee6d0a2a1cdf8b867b8d2f21ae86ce",
        "witness.json": "c952ad94d4d777eee0a1bf978ff782f1ce1783b964185105354ac279bfc22950",
    }),
    "ktz": (0, {
        "ktz.decay.csv": "f32c4e6ad318883ce92c95538936fffae922cc7c8e3fb7d0daf3b050164221db",
        "ktz.json": "2f66125701704393f07d252e7e337f20191ab97677f583c0a4fbe6daa3ed2042",
    }),
    "halfsum": (0, {
        "halfsum.eigenvalues.csv": "781a774aceecec2840b8c2706dc331520d91a6b78395d37f676e61638673e9ca",
        "halfsum.json": "b54f6dd003792e9f25ee848bab334602cb16e199d3632fd1646c3c4c820bfa48",
    }),
}


RUN_CONFIGS = {
    "diff-root-prefix-2eps": """
        [run]
        name = diffroot
        seed = 11
        tol = 1e-8

        [operator]
        kind = root_perturbed
        m = 3
        rate = 1.3

        [probe]
        kind = prefix
        values = 0.8,0.1 -0.3,0.6 0.5,-0.5
        limit = 0.7,0

        [diagnostic]
        op = difference-compactness
        epsilons = 2.2 2.5
        horizons = 100 200 400
        """,
    "orbit-c0-basis": """
        [run]
        name = c0basis
        seed = 12
        tol = 1e-8

        [operator]
        kind = harmonic
        space = c0
        rate = 1.4

        [probe]
        kind = basis
        index = 5

        [diagnostic]
        op = compactness
        epsilons = 0.5
        horizons = 100 200 400
        """,
    "diff-root4-prefix-past-first-block": """
        [run]
        name = diffroot4
        seed = 14
        tol = 1e-8

        [operator]
        kind = root_perturbed
        m = 4
        rate = 1.3

        [probe]
        kind = prefix
        values = 0.8,0.1 -0.3,0.6 0.5,-0.5
        limit = 0.7,0

        [diagnostic]
        op = difference-compactness
        epsilons = 2.5
        horizons = 150 300 600
        """,
    "witness-410": """
        [run]
        name = witness410
        seed = 13
        tol = 1e-8

        [operator]
        kind = harmonic
        rate = 1.0

        [probe]
        kind = one

        [diagnostic]
        op = witness
        count = 8
        horizon = 410
        """,
    "witness-1500-two-blocks": """
        [run]
        name = witness1500
        seed = 15
        tol = 1e-8

        [operator]
        kind = harmonic
        rate = 2.0

        [probe]
        kind = one

        [diagnostic]
        op = witness
        count = 8
        horizon = 1500
        """,
    "diff-harmonic-2eps-completes-lead-proofs": """
        [run]
        name = diffharm2
        seed = 16
        tol = 1e-8

        [operator]
        kind = harmonic
        rate = 1.0

        [probe]
        kind = one

        [diagnostic]
        op = difference-compactness
        epsilons = 1.0 2.5
        horizons = 300 600 1200
        """,
    "mean-ergodic-root2": """
        [run]
        name = meroot2
        seed = 17
        tol = 1e-8

        [operator]
        kind = root_perturbed
        m = 2
        rate = 1.0

        [diagnostic]
        op = mean-ergodic
        """,
    "mean-ergodic-root1": """
        [run]
        name = meroot1
        seed = 18
        tol = 1e-8

        [operator]
        kind = root_perturbed
        m = 1
        rate = 1.0

        [diagnostic]
        op = mean-ergodic
        """,
    "mean-ergodic-matrix-euclidean": """
        [run]
        name = mematl2
        seed = 19
        tol = 1e-8

        [operator]
        kind = matrix
        path = matrix.txt
        norm = euclidean

        [probe]
        kind = one

        [diagnostic]
        op = mean-ergodic
        """,
    "mean-ergodic-matrix-sup": """
        [run]
        name = mematsup
        seed = 20
        tol = 1e-8

        [operator]
        kind = matrix
        path = matrix.txt
        norm = sup

        [probe]
        kind = one

        [diagnostic]
        op = mean-ergodic
        """,
    "jdlg-matrix": """
        [run]
        name = jdlgmat
        seed = 22
        tol = 1e-8

        [operator]
        kind = matrix
        path = matrix.txt

        [diagnostic]
        op = jdlg
        """,
}

# runs that read ``matrix.txt``: the seed its power-bounded matrix is drawn from
MATRIX_SEEDS = {"mean-ergodic-matrix-euclidean": 19, "mean-ergodic-matrix-sup": 20,
                "jdlg-matrix": 22}

RUN_DIGESTS = {
    "diff-root-prefix-2eps": (0, {
        "diffroot.diagnostic.csv": "8144d6bc6f4747de641b0167571d88b0b786ae2fcc04cbc2ad287fb0f0f36f1e",
        "diffroot.json": "830258b4d53a741b8a4bf2a5bd251d89b6e29779d3377e0fe205fffbe6352306",
    }),
    "orbit-c0-basis": (0, {
        "c0basis.diagnostic.csv": "6967b8b44172643d13a9820e96c84e8238df9c75b1e86cabb7939cc1703a6575",
        "c0basis.json": "b70d756c0aa9c91342eb96e6889f51a8235670ca29332765a13762e7e1e2ffeb",
    }),
    "diff-root4-prefix-past-first-block": (0, {
        "diffroot4.diagnostic.csv": "19834045d23b2d3331f12bd72d03c980cd58851fe9e343c7ff85c6cbcb8a8305",
        "diffroot4.json": "e980ad44d7acb60468d51fd366ed4006a495cac10b401413f39bd24352a47a6d",
    }),
    "witness-410": (0, {
        "witness410.json": "3abba3de7ff5cac0e4957a318a0f28a2ad3f0a628643127529661c65203a8e53",
    }),
    "witness-1500-two-blocks": (0, {
        "witness1500.json": "b66d3172c6c13f604da678e1365fe2a34d2084faea048fc748a8fc3c4449ab9a",
    }),
    "diff-harmonic-2eps-completes-lead-proofs": (0, {
        "diffharm2.diagnostic.csv": "25762565dc540b4e085ac3dbf07e89e761d31b358cd01813e95021fe5705cf46",
        "diffharm2.json": "4392ad00b4ef7687322ea8296b81394739c267bf33853a7cfe9918a2b4ab7cd7",
    }),
    "mean-ergodic-root2": (0, {
        "meroot2.json": "612f0d3c445e96cd871f6ba772553d225961ebd482a5c20d96ffedd2ebe4bb89",
    }),
    "mean-ergodic-root1": (0, {
        "meroot1.json": "6040fb48080cbb9c4c8b7900453d0d13a60cc823965c033e70dcba2e87083a33",
    }),
    "mean-ergodic-matrix-euclidean": (0, {
        "mematl2.json": "d21ae7e226c779f8958229894acf824a332bd1ace24329a3ba25858ab778fae5",
    }),
    "mean-ergodic-matrix-sup": (0, {
        "mematsup.json": "684f6dfd67a55648a1c0395304c43022eb1491963b11caf6437268f8d7b99f44",
    }),
    "jdlg-matrix": (0, {
        "jdlgmat.json": "c705534bdc8bc2c2ae6510cd2f700aef827a0ce8b106db2985f240d44dfe85f4",
    }),
}


def _digests(out):
    files = {}
    for path in sorted(out.iterdir()):
        if path.name.endswith(".timing.json"):
            continue
        data = path.read_bytes().replace(str(out).encode(), b"<OUT>")
        files[path.name] = hashlib.sha256(data).hexdigest()
    return files


def test_every_demo_has_a_digest():
    assert sorted(DIGESTS) == sorted(cli.DEMO_NAMES)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_report_bytes(name, tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["demo", name, "--seed", str(SEED), "--out-dir", str(out)])
    assert (rc, _digests(out)) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(RUN_CONFIGS))
def test_run_report_bytes(name, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(textwrap.dedent(RUN_CONFIGS[name]))
    if name in MATRIX_SEEDS:
        op = random_power_bounded(np.random.default_rng(MATRIX_SEEDS[name]))[0]
        write_matrix_file(tmp_path / "matrix.txt", op)
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(cfg), "--out-dir", str(out)])
    assert (rc, _digests(out)) == RUN_DIGESTS[name]
