"""Golden sha256 digests of the five demo reports.

Every demo runs through ``orbitlab.cli.main`` at a fixed seed; each file
it writes except the ``*.timing.json`` sidecar must hash to the digest
recorded here, and the exit code must match.  The only path a report
holds is the certificate path in ``witness.json`` (an assertion detail),
so the out-dir is replaced by a fixed token before hashing.

A change that moves a report byte must update the digest and declare the
moved values.  The matrix demos (``ktz``, ``halfsum``) go through LAPACK,
so a different numpy/LAPACK build may move their last digits; the digests
were taken with numpy 2.4 and its bundled OpenBLAS.
"""

import hashlib

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


def test_every_demo_has_a_digest():
    assert sorted(DIGESTS) == sorted(cli.DEMO_NAMES)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_report_bytes(name, tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["demo", name, "--seed", str(SEED), "--out-dir", str(out)])
    files = {}
    for path in sorted(out.iterdir()):
        if path.name.endswith(".timing.json"):
            continue
        data = path.read_bytes().replace(str(out).encode(), b"<OUT>")
        files[path.name] = hashlib.sha256(data).hexdigest()
    assert (rc, files) == DIGESTS[name]
