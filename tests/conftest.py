"""Shared battery generators for the matrix-side tests, the reference
rows of diagonal difference vectors, the point-by-point greedy net, the
sampled certificate check, and the hypothesis profile."""

import numpy as np
import pytest
from hypothesis import settings

from orbitlab.operators import MatrixOperator, difference_coords
from orbitlab.seqspace import SeqVector, norm_exceeds

# every property test draws the same examples on every run
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def random_power_bounded(rng, dim=10, norm_tag="euclidean", max_cond=20.0,
                         include_one=True, max_uni=3):
    """Random power-bounded matrix with a semisimple unimodular part.

    Eigenvalues: one or more unimodular values (phases bounded away from
    each other), the rest strictly inside the disk with moduli in
    [0.3, 0.9]; conjugated by a conditioned random basis.  ``max_uni``
    caps the unimodular count (each extra irrational rotation adds a
    torus dimension, which slows packing saturation at fixed horizons).
    """
    n_uni = int(rng.integers(1, max_uni + 1))
    phases = []
    while len(phases) < n_uni:
        cand = rng.uniform(-np.pi, np.pi)
        if all(abs(cand - p) > 0.3 for p in phases):
            phases.append(cand)
    if include_one:
        phases[0] = 0.0
    uni = np.exp(1j * np.array(phases))
    n_int = dim - n_uni
    moduli = rng.uniform(0.3, 0.9, size=n_int)
    args = rng.uniform(-np.pi, np.pi, size=n_int)
    interior = moduli * np.exp(1j * args)
    eigs = np.concatenate([uni, interior])
    while True:
        v = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        if np.linalg.cond(v) <= max_cond:
            break
    a = v @ np.diag(eigs) @ np.linalg.inv(v)
    return MatrixOperator(a, norm_tag), eigs, v


def random_contraction(rng, dim=10, norm_tag="euclidean"):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return MatrixOperator(g / np.linalg.norm(g, 2), norm_tag)


def commuting_matrix_family(rng, dim=8, m=2, norm_tag="euclidean"):
    """Commuting generators as polynomials of one random matrix, scaled
    to unit operator norm."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    g = g / np.linalg.norm(g, 2)
    gens = []
    eye = np.eye(dim, dtype=np.complex128)
    for _ in range(m):
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        t = coeffs[0] * eye + coeffs[1] * g + coeffs[2] * (g @ g)
        t = t / np.linalg.norm(t, 2)
        gens.append(MatrixOperator(t, norm_tag))
    return gens


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def power_difference_rows(op, s, t: int, y, ks) -> np.ndarray:
    """Coordinates at ``ks`` of ``(T^s - T^t) y``, one row per exponent in
    ``s`` (all exponents >= 0): the reference for the rows of a block of
    differences.

    Row i is ``operators.difference(power_apply(op, s[i], y),
    power_apply(op, t, y)).coords(ks)`` bit for bit: the same kernel,
    ``difference_coords``, run over an int column of exponents.
    """
    s = np.asarray(s, dtype=np.int64).reshape(-1, 1)
    if t < 0 or (s < 0).any():
        raise ValueError("power_difference_rows needs exponents >= 0")
    ks = np.asarray(ks, dtype=np.int64)
    return difference_coords(op.symbol, s, t, y.coords(ks), ks)


def ref_net(labels, separated, cap=None) -> list[int]:
    """The point-by-point greedy net, the reference for every production
    net: positions in ``labels`` of the points that are ``separated(point,
    member)`` from every current member, scanned in label order, stopping
    once the net holds ``cap`` members.  ``separated`` decides each pair on
    its own."""
    net: list = []
    positions: list[int] = []
    for i, lbl in enumerate(labels):
        if all(separated(lbl, member) for member in net):
            net.append(lbl)
            positions.append(i)
            if cap is not None and len(net) >= cap:
                break
    return positions


def scan_decisions(cloud, eps):
    """Per-pair decisions by a fresh ``norm_exceeds`` scan of the cloud's
    difference vector, with no cache and no first-block state."""
    return lambda a, b: norm_exceeds(cloud._diff_vector(a, b), eps, cloud.tol)


def validate_certificate(v: SeqVector, after: int = 16, samples: int = 10_000,
                         rng=None) -> float:
    """Sampled soundness check of a vector's certificates.

    Draws ``samples`` indices k > ``after`` (log-uniformly up to 1e6)
    and returns the worst slack of the two promises: the tail slack
    ``|x_k - limit| - bound(after)`` there, and the majorant slack
    ``|x_k| - majorant`` there and at every k <= ``after``.  Sound
    certificates keep this <= 0 up to rounding.
    """
    rng = rng or np.random.default_rng(0)
    ks = np.unique((10 ** rng.uniform(np.log10(after + 1), 6, size=samples)).astype(np.int64))
    ks = ks[ks > after]
    if ks.size == 0:
        return 0.0
    vals = v.coords(ks)
    tail_slack = np.abs(vals - v.limit) - v.tail.bound(after)
    majorant_slack = np.abs(np.concatenate([v.prefix(after), vals])) - v.majorant
    return float(max(tail_slack.max(), majorant_slack.max()))
