"""The witness pair search's block screen against the closure path.

``power_difference_rows`` must give the coordinates the closure vectors
give, bit for bit, and ``c0_witness`` must select the same pairs whatever
the screen's block size.  The expected selection logs were computed by
the per-candidate pair search that the screen replaced.
"""

import numpy as np
import pytest

from orbitlab import gallery, orbits
from orbitlab.errors import HorizonExhaustedError, NotApplicableError
from orbitlab.gallery import _subset_sums, c0_witness
from orbitlab.operators import (DiagonalOperator, constant_symbol, harmonic_symbol,
                                power_apply, power_difference_rows,
                                root_perturbed_symbol)
from orbitlab.seqspace import (basis_vector, constant_one, from_prefix, lin_comb,
                               sup_norm)

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
        monkeypatch.setattr(gallery, "_SCREEN_BLOCK", block)
    op = DiagonalOperator(harmonic_symbol(rate), "c")
    x = constant_one() if probe == "one" else from_prefix([0.5, 1j], 1.0)
    assert _selection_log(op, x) == log


@pytest.mark.parametrize("block", [None, 1, 7])
def test_root_perturbed_still_not_applicable(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(gallery, "_SCREEN_BLOCK", block)
    op = DiagonalOperator(root_perturbed_symbol(3), "c")
    with pytest.raises(NotApplicableError):
        c0_witness(op, constant_one(), 4, 3000, tol=1e-6)


def test_demo_size_call_makes_few_norm_scans(monkeypatch):
    # the per-candidate search made 20,498 norm_exceeds calls here
    calls = []
    real = gallery.norm_exceeds

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(gallery, "norm_exceeds", counting)
    monkeypatch.setattr(orbits, "norm_exceeds", counting)
    op = DiagonalOperator(harmonic_symbol(1.0), "c")
    with pytest.raises(HorizonExhaustedError) as info:
        c0_witness(op, constant_one(), 20, 10_000, tol=1e-6)
    assert info.value.audit.selection_log == ((2, 1),)
    assert len(calls) <= 600


def test_subset_sums_certify_each_distinct_subset_once(monkeypatch):
    op = DiagonalOperator(harmonic_symbol(1.0), "c")
    vectors = [lin_comb([1.0, -1.0], [constant_one(), power_apply(op, d, constant_one())])
               for d in (1, 3, 4)]
    # the loop before memoisation: one certified norm per draw
    rng = np.random.default_rng(7)
    want = []
    for _ in range(200):
        size = int(rng.integers(1, len(vectors) + 1))
        subset = sorted(rng.choice(len(vectors), size=size, replace=False).tolist())
        val, err = sup_norm(lin_comb([1.0] * size, [vectors[j] for j in subset]), 1e-8)
        want.append((subset, val + err))
    calls = []
    monkeypatch.setattr(gallery, "sup_norm",
                        lambda *a, **k: calls.append(1) or sup_norm(*a, **k))
    assert _subset_sums(vectors, 200, 7, 1e-8) == want
    assert len(calls) == len({tuple(s) for s, _ in want}) == 7
