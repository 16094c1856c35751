"""Golden sha256 digests of the five demo reports and of four ``run``
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
two thresholds; and a two-epsilon difference-orbit net at h = 1200 whose
larger epsilon completes the heads of 250 differences the smaller one
proved from their lead coordinates.

A change that moves a report byte must update the digest and declare the
moved values.  The matrix demos (``ktz``, ``halfsum``) go through LAPACK,
so a different numpy/LAPACK build may move their last digits; the digests
were taken with numpy 2.4 and its bundled OpenBLAS.
"""

import hashlib
import textwrap

import pytest

from orbitlab import cli

SEED = 2026

DIGESTS = {
    "example33": (0, {
        "example33.c0_probe.csv": "82029a06fe84b65adc7b17a2ea0e8097e1b71118f1c24c257d9fcbba1399e0ce",
        "example33.json": "c2d625397a00fddfe03fdeacc97140d4d3f6ea599a561019d5e714b964ca132d",
        "example33.orbit.csv": "a262d30583845908e95cf09df2e237afb324e3944df0c45f9a28a1a43f1c9b48",
    }),
    "example43": (0, {
        "example43.json": "6650cbe9f2d2bd9df5e26abccd0a1f2844a38ec698d8c99e032f4caa5fad32a2",
        "example43.one_minus_symbol.csv": "a262d30583845908e95cf09df2e237afb324e3944df0c45f9a28a1a43f1c9b48",
        "example43.square_difference.csv": "1d06bb95d1bf6ec89fe113ede706856d22ef4aef3ff9d090158106d8323f2253",
    }),
    "witness": (0, {
        "witness.certificate.json": "079416499965849d0516d6a85646c97137ee6d0a2a1cdf8b867b8d2f21ae86ce",
        "witness.json": "2a1f8131cb88a30407a2e38d953468639b49012c1050c7f12bea98c4dd7f6c95",
    }),
    "ktz": (0, {
        "ktz.decay.csv": "f32c4e6ad318883ce92c95538936fffae922cc7c8e3fb7d0daf3b050164221db",
        "ktz.json": "bf8eab9cd2f26c7ba1f3353b7166016cc5fef9f9505dcc6b297a44eac5324c37",
    }),
    "halfsum": (0, {
        "halfsum.eigenvalues.csv": "781a774aceecec2840b8c2706dc331520d91a6b78395d37f676e61638673e9ca",
        "halfsum.json": "c65f34b3e779a818bafed3577d988c9bf670f85b99b5bdc108a4d60d87d051f8",
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
}

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
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(cfg), "--out-dir", str(out)])
    assert (rc, _digests(out)) == RUN_DIGESTS[name]
