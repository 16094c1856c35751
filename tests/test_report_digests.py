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
block (its second entry is d = 1152) and screens products at two
thresholds; and a two-epsilon difference-orbit net at h = 1200 whose
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
        "example33.c0_probe.csv": "08587a7e1ce2f4858c0c4a87d5a1d789b687ea68229ebbf2e9f5313534c2182c",
        "example33.json": "46c6a3f3a183f4dbd83c7bcd9ce3a458e9d10e93aca6d6991ec9a98f64488968",
        "example33.orbit.csv": "5f1d122ba7d7896f0fad4b535de5161ec396e3bfdbf4c0df6c5980ae09112dc6",
    }),
    "example43": (0, {
        "example43.json": "dd91a391a7ebc316452cbfe3146984d1f02b9edd5163a6124b0a4aebf75e2c9a",
        "example43.one_minus_symbol.csv": "5f1d122ba7d7896f0fad4b535de5161ec396e3bfdbf4c0df6c5980ae09112dc6",
        "example43.square_difference.csv": "2f1ed37a6f712a622cb6f38401ef9f1d361f96557dfd32aeec948b27aa78ff21",
    }),
    "witness": (0, {
        "witness.certificate.json": "079416499965849d0516d6a85646c97137ee6d0a2a1cdf8b867b8d2f21ae86ce",
        "witness.json": "0aec2775092733c337b0f26b5619f59d8791b928263ab02ea43084fd96cfc4d8",
    }),
    "ktz": (0, {
        "ktz.decay.csv": "f32c4e6ad318883ce92c95538936fffae922cc7c8e3fb7d0daf3b050164221db",
        "ktz.json": "e0eebfb44eea5f823c50bff299dcbe35eddd58a9723851fa8e47f07c14b1e673",
    }),
    "halfsum": (0, {
        "halfsum.eigenvalues.csv": "781a774aceecec2840b8c2706dc331520d91a6b78395d37f676e61638673e9ca",
        "halfsum.json": "03996928ed52190105cc39a6f5cd9be278e0c1d9a25786d4461c16efeaade320",
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
        "diffroot.diagnostic.csv": "94beba99a8c85985863adec44ec7e7b8089a15d8d38920437a3c9051ee63979b",
        "diffroot.json": "73deed0785cf819586fdb348619a25398aedb9ff83535d3b916f4373975259ee",
    }),
    "orbit-c0-basis": (0, {
        "c0basis.diagnostic.csv": "0f09e3c3b9aa27dede69e1ea44d02403e1eef9fea585c9c3a3094d9995098521",
        "c0basis.json": "679731c473e0e6524ab07d69373c4d7c3bd041700ea8282c8f5835c2c4c6e34e",
    }),
    "diff-root4-prefix-past-first-block": (0, {
        "diffroot4.diagnostic.csv": "4042b65459ce4b10d0c4bd2eb47e1250c7abe836f477ee4164796dc18b024dd7",
        "diffroot4.json": "ecd089f990151184dd75fba73ec7959a8c9e639c66d543484fb3b8614cc3f342",
    }),
    "witness-410": (0, {
        "witness410.json": "95ed6fc8c6acd4475fba9c7f7c84f4548edcd8d639ad44e1771ebcd5bcd7c8bc",
    }),
    "witness-1500-two-blocks": (0, {
        "witness1500.json": "aac0118b9d89f3bfd349ce23adcfed822b43d4487458ae4738de347f2a621aef",
    }),
    "diff-harmonic-2eps-completes-lead-proofs": (0, {
        "diffharm2.diagnostic.csv": "5cf2e723c1226ace0f23357a583d66f8c052b9776b7c6361cdf61a05543c2c93",
        "diffharm2.json": "26c3597aecf4e4585d79a41406d01045b8560ad07b2a74dea7c7af3875eebf9d",
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
