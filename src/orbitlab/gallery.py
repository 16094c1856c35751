"""Counterexample operators, the c0-witness ladder extractor, and the
unconditional-partial-sum ladder test.

The witness extractor executes, at a finite exponent horizon, the
inductive construction that turns a non-compact orbit with compact
difference orbits into a ladder of vectors whose partial sums are
unconditionally bounded yet bounded away from zero; such a ladder is a
quantitative c0-containment certificate.  The construction is honest
about finiteness: when no exponent pair within the horizon meets the
current smallness threshold the extractor stops and reports the partial
ladder instead of relaxing the threshold.

Selection rules (all deterministic):
  * the separated exponent family is the greedy certified separated
    subset of the orbit, scanned from exponent 1 upward;
  * ``delta`` is the certified minimal pairwise orbit separation over
    that subset (the quantity bounding the ladder norms from below);
  * at step m+1 candidate pairs are scanned by increasing exponent
    difference, and a pair is accepted only if its action on every
    logged product-difference vector is certified below
    ``1 / (2^{m+1} M)``; logged products run over all subsets of the
    previously chosen pairs, including the empty product.

Every decision of the pair search is an orbit-cloud decision: the
witness cloud of the probe decides separation, and one cloud per logged
product decides smallness, all on the operator's one range of head phases.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import (CertificateError, ConfigError, HorizonExhaustedError,
                     NotApplicableError, UnreachableToleranceError)
from .jdlg import diagonal_jdlg
from .operators import (SYMBOL_FAMILIES, DiagonalOperator, DiagonalSymbol,
                        MatrixOperator, difference, harmonic_symbol, power_apply,
                        read_matrix_file, root_perturbed_symbol)
from .orbits import _NOT_SEPARATED, _SEPARATED, orbit, orbit_check
from .seqspace import (FiniteVector, SeqVector, basis_vector, checked_coords, constant_one,
                       from_prefix, lin_comb, sup_norm)

__all__ = [
    "WitnessAudit",
    "BpReport",
    "limit_one_operator",
    "root_limit_operator",
    "one_minus_symbol_vector",
    "c0_witness",
    "bp_test",
    "unconditional_constant",
    "operator_from_spec",
    "probe_from_spec",
    "write_certificate",
    "verify_certificate",
    "CERTIFICATE_FORMAT",
]

CERTIFICATE_FORMAT = "c0-ladder-certificate"
CERTIFICATE_VERSION = 1
_PREFIX_CHECK_LEN = 32
# cap on logged products x horizon: a product cloud holds about 34 B per
# difference, so the product clouds of one step take at most about 64 MB
_MAX_PRODUCT_DIFFERENCES = (64 << 20) // 34
_SPEC_DEFAULTS = {"rate": 1.0, "m": 2, "angle": 0.0}  # of the symbol parameters
_SCAN_TOL = 1e-8  # the coarsest tolerance of a witness or ladder-test norm scan
_VERIFY_TOL = 1e-6  # the ladder test's tolerance when a certificate is verified


def limit_one_operator(rate: float = 1.0) -> DiagonalOperator:
    """Isometry on c whose symbol tends to 1 without attaining it (the
    harmonic symbol): no fixed coordinates, and every difference ``(I -
    T^n) x`` has limit coordinate 0, so difference orbits live in c0."""
    return DiagonalOperator(harmonic_symbol(rate), "c")


def root_limit_operator(m: int, rate: float = 1.0) -> DiagonalOperator:
    """Isometry on c whose symbol tends to a primitive root of unity of
    order m >= 2: the root-perturbed symbol at ``m`` and ``rate``.

    ``(I - T^m) x`` has limit coordinate 0 while ``1 - (a_k)`` keeps the
    nonzero limit ``1 - xi``, which is the source of the compactness
    asymmetry between rg(I - T^m) and rg(I - T).
    """
    if m < 2:
        raise ValueError("this constructor needs m >= 2; use limit_one_operator for m = 1")
    return DiagonalOperator(root_perturbed_symbol(m, rate), "c")


def one_minus_symbol_vector(op: DiagonalOperator) -> SeqVector:
    """The vector ``1 - (a_k)`` = (I - T) applied to the constant-one
    sequence; its limit coordinate is ``1 - a_limit``."""
    one = constant_one("c")
    return difference(one, op.apply(one))


# ---------------------------------------------------------------------------
# Witness extraction

@dataclass(frozen=True)
class WitnessAudit:
    """Record of the witness construction.

    ``delta`` is the certified orbit separation, ``bound_m`` the
    semigroup bound sup ||S|| + 1, ``ladder`` the extracted vectors (not
    printed) with their certified norms, ``selection_log`` the chosen
    exponent pairs (s, t), and ``subset_sum_bound`` the ladder's certified
    ``unconditional_constant``, an upper bound on the norm of every
    partial sum over a subset of the ladder, with the bound
    ``subset_bound = 1 + 2 M ||x||`` it is audited against: with
    ``subset_bound_ok`` the bound holds for all ``2^m - 1`` subsets.
    """

    delta: float
    bound_m: float
    probe_norm: float
    ladder: tuple[SeqVector, ...] = field(repr=False)
    ladder_norms: tuple[float, ...]
    selection_log: tuple[tuple[int, int], ...]
    thresholds: tuple[float, ...]
    subset_sum_bound: float
    subset_bound: float
    subset_bound_ok: bool
    norms_ok: bool
    requested_count: int
    achieved_count: int
    horizon: int
    exhausted: bool
    notes: str = ""


def _below(clouds: Sequence, d: int, tau: float) -> bool:
    """Certified ``||(T^d - I) P|| <= tau`` for the product ``P`` of every
    cloud: the upper end of the distance of the pair ``(1 + d, 1)`` is at
    or below tau.  T is an isometry, so this norm is ``||(T^{1+d} - T)
    P||``.  An unreachable tolerance is a "no"."""
    try:
        return all(val + err <= tau for val, err in (c.distance(1 + d, 1) for c in clouds))
    except UnreachableToleranceError:
        return False


def _first_pair(cloud, clouds: Sequence, horizon: int, block: int, eps: float,
                tau: float, used: set) -> int | None:
    """The smallest unused difference ``d < horizon`` whose orbit points are
    certified more than eps apart (``cloud``) and that is ``_below`` tau on
    every product cloud, or None.

    Each block of differences is first decided in bulk from the clouds'
    states: a witness "no" or a product "yes" rules d out; only the
    differences left go to the per-d decisions, in order."""
    for lo in range(1, horizon, block):
        hi = min(lo + block, horizon) - 1
        open_ = cloud.states(eps, hi)[lo:hi + 1] != _NOT_SEPARATED
        for c in clouds:
            open_ &= c.states(tau, hi)[lo:hi + 1] != _SEPARATED
        for d in (np.flatnonzero(open_) + lo).tolist():
            if d not in used and cloud.separated(1 + d, 1, eps) and _below(clouds, d, tau):
                return d
    return None


def c0_witness(op: DiagonalOperator, x: SeqVector, count: int, horizon: int,
               tol: float = 1e-6) -> WitnessAudit:
    """Extract a c0-witness ladder from a non-compact orbit.

    Preconditions (checked): the splitting projection acts as the
    identity on the almost periodic part for this symbol family, the
    difference-orbit diagnostic saturates, and the orbit diagnostic of
    ``x`` grows at the separation scale, the probe norm.  Violations
    raise NotApplicableError.

    The inductive selection scans exponent pairs by increasing
    difference and accepts a pair only when its action on every logged
    subset product is certified below ``1 / (2^{m+1} M)``.  Each product
    ``P`` of a step gets its own orbit cloud at tolerance ``min(tol, tau /
    8)``; the witness cloud and the product clouds decide a block of
    differences at a time from their first-block states, and decide the
    differences that block leaves open one by one, by the witness cloud's
    certified ``separated`` and the product clouds' ``distance``
    (``_first_pair``).  All of them read the operator's one range of
    first-block phases (``op.phase_range``).  If the scan exhausts the horizon before
    ``count`` entries are built, a HorizonExhaustedError carrying the
    partial audit is raised.  A product log whose clouds at the next step
    would hold more than about 64 MB of state (``_MAX_PRODUCT_DIFFERENCES``
    products times horizon) raises ValueError before they are built.

    The partial sums of the ladder are certified over every subset at
    once: ``subset_sum_bound`` is the ladder's ``unconditional_constant``
    (0 for an empty ladder), and ``subset_bound_ok`` proves that no
    subset sum exceeds ``1 + 2 M ||x||`` by more than ``tol``.
    """
    if count < 1 or horizon < 2:
        raise ValueError("need count >= 1 and horizon >= 2")
    jrep = diagonal_jdlg(op, cross_check=False)
    if not jrep.p_is_identity_on_aap:
        raise NotApplicableError("splitting projection is not certified as the "
                                 "identity on the almost periodic part")

    fine = min(tol, _SCAN_TOL)
    x_norm, _ = sup_norm(x, fine)  # also the separation scale
    if x_norm == 0.0:
        raise NotApplicableError("zero probe vector")

    orbit_rep = orbit_check(op, x, x_norm, fine)
    if orbit_rep.verdict != "growing":
        raise NotApplicableError(
            f"orbit diagnostic verdict is {orbit_rep.verdict!r}; the witness "
            "construction needs a certified non-compact orbit")

    diff_probe = difference(x, op.apply(x))
    dn, _ = sup_norm(diff_probe, fine)
    if dn > 0:
        eps_diff = 1.25 * dn
        diff_rep = orbit_check(op, diff_probe, eps_diff, fine)
        if diff_rep.verdict != "saturating":
            raise NotApplicableError(
                f"difference-orbit diagnostic verdict is {diff_rep.verdict!r}; "
                "compact differences are a precondition")

    bound_m = op.operator_norm() + 1.0  # isometry: sup over the semigroup is 1

    # separated exponent family: greedy certified x_norm-separated subset
    cap = max(4 * count, 16)
    cloud = orbit(op, x, horizon, tol=fine)
    members = [cloud.labels[i] for i in cloud.greedy_net(x_norm, cap)]
    if len(members) < 2:
        raise NotApplicableError("fewer than two separated orbit points found")
    # the metric depends on |n - m| only: one member pair per distinct
    # difference, each read from its first-block bracket where that closes,
    # their heads completed in one batch
    pairs = {b - a: (a, b) for i, a in enumerate(members) for b in members[i + 1:]}
    cloud.complete(list(pairs))
    delta = min(val - err for val, err in (cloud.distance(a, b) for a, b in pairs.values()))
    delta = max(delta, 0.0)

    subset_bound = 1.0 + 2.0 * bound_m * x_norm
    ladder: list[SeqVector] = []
    norms: list[float] = []
    log: list[tuple[int, int]] = []
    thresholds: list[float] = []
    # logged product differences as exponent pairs (A, B): (T^A - T^B) x
    products: set[tuple[int, int]] = {(0, 0)}
    used_ds: set[int] = set()
    exhausted = False

    for step in range(count):
        tau = 1.0 / (2.0 ** (step + 1) * bound_m)
        thresholds.append(tau)
        # one cloud per logged product P = (T^A - T^B) x
        prod_clouds = [
            orbit(op, difference(power_apply(op, a_exp, x), power_apply(op, b_exp, x)),
                  horizon, tol=min(tol, tau / 8))
            for (a_exp, b_exp) in sorted(products) if a_exp != b_exp
        ]
        d = _first_pair(cloud, prod_clouds, horizon, op.phase_range.block, x_norm, tau,
                        used_ds)
        if d is None:
            exhausted = True
            thresholds.pop()
            break
        s_exp, t_exp = 1 + d, 1
        used_ds.add(d)
        log.append((s_exp, t_exp))
        # T_m^{-1} P (T_m x - S_m x) with P acting as the identity on the
        # differences reduces, for the isometric diagonal case, to x - T^d x
        entry = difference(x, power_apply(op, d, x))
        val, err = sup_norm(entry, fine)
        ladder.append(entry)
        norms.append(val)
        if step + 1 < count and len(products) * 2 * horizon > _MAX_PRODUCT_DIFFERENCES:
            raise ValueError("product log would exceed its cap; lower count")
        products |= {(a_exp + s_exp, b_exp + t_exp) for (a_exp, b_exp) in products}

    achieved = len(ladder)
    norms_ok = all(v >= delta / bound_m - tol for v in norms)

    # one certified bound over every subset sum of the ladder
    sum_bound = unconditional_constant(ladder, fine) if achieved else 0.0

    notes = ("series of ladder entries cannot converge: norms are bounded "
             f"below by delta/M = {delta / bound_m:g}") if achieved else ""
    audit = WitnessAudit(
        delta=float(delta), bound_m=float(bound_m), probe_norm=float(x_norm),
        ladder=tuple(ladder), ladder_norms=tuple(norms),
        selection_log=tuple(log), thresholds=tuple(thresholds),
        subset_sum_bound=float(sum_bound), subset_bound=float(subset_bound),
        subset_bound_ok=sum_bound <= subset_bound + tol, norms_ok=norms_ok,
        requested_count=count, achieved_count=achieved, horizon=horizon,
        exhausted=exhausted, notes=notes,
    )
    if exhausted:
        raise HorizonExhaustedError(
            f"pair selection exhausted the exponent horizon {horizon} after "
            f"{achieved} of {count} ladder entries (next threshold "
            f"{1.0 / (2.0 ** (achieved + 1) * bound_m):g})", audit=audit)
    return audit


# ---------------------------------------------------------------------------
# Ladder statistics

def _modulus(v: SeqVector) -> SeqVector:
    """The vector ``(|v_k|)_k`` with the tail of ``v``, as ``||v_k| - |lim||
    <= |v_k - lim|``.  Its limit is taken by the same ``np.abs`` as its
    coordinates (and every scan), which may round ``|lim|`` one unit above
    Python's ``abs``, so a coordinate equal to the limit keeps the exact
    tail; the majorant takes that limit in."""
    lim = float(np.abs(np.complex128(v.limit)))
    return SeqVector(lambda ks: np.abs(checked_coords(v, ks)), lim, v.tail, v.space_tag,
                     max(v.majorant, lim))


def _modulus_sum(vectors: Sequence[SeqVector]) -> SeqVector:
    """The vector ``(sum_j |x_j(k)|)_k``, certified by ``lin_comb``."""
    return lin_comb([1.0] * len(vectors), [_modulus(v) for v in vectors])


def unconditional_constant(vectors: Sequence[SeqVector], tol: float) -> float:
    """Certified upper bound on ``sup_{|c_j| <= 1} ||sum_j c_j x_j||``.

    In c that supremum equals ``sup_k sum_j |x_j(k)|`` exactly, the norm
    of ``_modulus_sum(vectors)``.  So the upper end of its certified scan
    at ``tol`` bounds the norm of every subset sum, and it is at most pi
    times the largest of them, plus ``tol`` (1/pi is the sharp constant
    for complex scalars).
    """
    val, err = sup_norm(_modulus_sum(vectors), tol)
    return val + err


@dataclass(frozen=True)
class BpReport:
    """Certified unconditional-boundedness statistics of a vector series."""

    unconditional_bound: float
    cauchy_defect: float
    first_partial: float
    ladder_detected: bool


def bp_test(vectors: Sequence[SeqVector], tol: float = 1e-6) -> BpReport:
    """Detect a c0-style ladder from certified partial-sum bounds.

    ``unconditional_bound`` is the ``unconditional_constant`` of the
    series, an upper bound on the norm of every finite subset sum;
    ``cauchy_defect`` is the smallest single-entry norm and
    ``first_partial`` the first entry's norm, from one certified scan per
    entry.  A ladder is detected when the bound stays below 10x the first
    partial sum while the defect stays above ``tol`` (bounded sums,
    nonconvergent series).
    """
    if len(vectors) < 2:
        raise ValueError("bp_test needs at least two vectors")
    fine = min(tol, _SCAN_TOL)
    norms = [sup_norm(v, fine) for v in vectors]
    first_partial = norms[0].value + norms[0].error_bound
    defect = min(val - err for val, err in norms)
    bound = unconditional_constant(vectors, fine)
    detected = bool(bound < 10.0 * first_partial and defect > tol)
    return BpReport(float(bound), float(defect), float(first_partial), detected)


# ---------------------------------------------------------------------------
# Certificates: versioned header, reconstruction spec, prefix integrity data

def operator_from_spec(spec: dict, base_dir: str = "."):
    """Operator of a spec dict: ``harmonic`` (rate 1.0), ``root_perturbed``
    (m 2, rate 1.0) or ``constant`` (angle 0.0) on ``space`` c or c0 (default
    c), or ``matrix`` read from ``path`` (relative to ``base_dir``) with
    ``norm`` euclidean.  Bad specs raise ConfigError."""
    kind = spec.get("kind")
    space = spec.get("space", "c")
    try:
        if kind == "matrix":
            if not spec.get("path"):
                raise ConfigError("matrix operators need operator.path")
            return read_matrix_file(os.path.join(base_dir, spec["path"]),
                                    spec.get("norm", "euclidean"))
        if space not in ("c", "c0"):
            raise ConfigError(f"unknown space {space!r}; choose c or c0")
        if kind not in SYMBOL_FAMILIES:
            raise ConfigError(f"unknown operator kind {kind!r}")
        symbol = DiagonalSymbol(kind, tuple(spec.get(name, _SPEC_DEFAULTS[name])
                                            for name in SYMBOL_FAMILIES[kind]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return DiagonalOperator(symbol, space)


def probe_from_spec(spec: dict, op):
    """The probe for ``op`` of a spec dict: ``one`` (default), ``basis``
    (index 1) or ``prefix`` ([re, im] ``values``, ``limit`` [0, 0]).  For a
    matrix ``op`` it is the first ``dim`` coordinates of that sequence; on
    c0 it is the sequence tagged c0, which needs limit 0.  Bad specs raise
    ConfigError."""
    kind = spec.get("kind", "one")
    dim = op.dim if isinstance(op, MatrixOperator) else None
    # the matrix head is built next to the sequence, not read from it, so
    # matrix runs never scan sequence coordinates
    n = dim or 0
    try:
        if kind == "one":
            x, head = constant_one("c"), np.ones(n)
        elif kind == "basis":
            index = int(spec.get("index", 1))
            if index < 1 or (dim is not None and index > dim):
                raise ConfigError(f"probe.index {index} is out of range")
            x, head = basis_vector(index), np.arange(1, n + 1) == index
        elif kind == "prefix":
            if "values" not in spec:
                raise ConfigError("prefix probes need probe.values")
            values = [complex(re, im) for re, im in spec["values"]]
            if dim is not None and len(values) != dim:
                raise ConfigError(f"probe has {len(values)} entries, operator dim {dim}")
            x, head = from_prefix(values, complex(*spec.get("limit", (0.0, 0.0)))), values
        else:
            raise ConfigError(f"unknown probe kind {kind!r}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if dim is not None:
        return FiniteVector(head, op.norm_tag)
    if op.space_tag != "c0":
        return x
    if x.limit != 0:
        raise ConfigError("an operator on c0 needs a probe with limit 0")
    return replace(x, space_tag="c0")


def write_certificate(path, audit: WitnessAudit, operator_spec: dict,
                      probe_spec: dict) -> None:
    """Write a compact re-verifiable certificate of a witness ladder: the
    specs it names, and the prefix, limit and tail of each entry of
    ``audit.ladder``, exactly the ladder that was audited."""
    entries = [{
        "prefix": [[float(z.real), float(z.imag)] for z in v.prefix(_PREFIX_CHECK_LEN)],
        "limit": [float(v.limit.real), float(v.limit.imag)],
        "tail": {"constant": v.tail.constant, "exponent": v.tail.exponent},
    } for v in audit.ladder]
    doc = {
        "format": CERTIFICATE_FORMAT,
        "version": CERTIFICATE_VERSION,
        "operator": operator_spec,
        "probe": probe_spec,
        "delta": audit.delta,
        "bound_m": audit.bound_m,
        "probe_norm": audit.probe_norm,
        "subset_bound": audit.subset_bound,
        "pairs": [list(p) for p in audit.selection_log],
        "ladder_norms": list(audit.ladder_norms),
        "prefix_check": {"length": _PREFIX_CHECK_LEN, "entries": entries},
        "exhausted": audit.exhausted,
        "requested_count": audit.requested_count,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def verify_certificate(path) -> dict:
    """Rebuild the ladder from a certificate and re-run the ladder test.

    Checks the stored coordinate prefixes against the reconstruction
    before trusting the pairs; returns a report dict with the integrity
    flag and the BpReport under ``"bp"``, whose ``unconditional_bound``
    bounds every subset sum of the ladder (ladders of length < 2 skip the
    test).  A file that does not decode as UTF-8 JSON raises
    CertificateError; an unreadable one, OSError.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
        if doc.get("format") != CERTIFICATE_FORMAT:
            raise CertificateError(f"not a {CERTIFICATE_FORMAT} file")
        if int(doc.get("version", -1)) != CERTIFICATE_VERSION:
            raise CertificateError(f"unsupported certificate version {doc.get('version')}")
        if doc["operator"].get("kind") == "matrix":
            raise CertificateError("certificates name diagonal operators, not matrix files")
        op = operator_from_spec(doc["operator"])
        x = probe_from_spec(doc["probe"], op)
        pairs = [tuple(int(v) for v in p) for p in doc["pairs"]]
        ladder = [difference(x, power_apply(op, s - t, x)) for (s, t) in pairs]
        stored = doc["prefix_check"]["entries"]
        if len(stored) != len(pairs):
            raise CertificateError("prefix data does not cover every ladder entry")
        # the file bounds the prefixes built: each holds exactly `length` values
        plen = int(doc["prefix_check"]["length"])
        if any(len(entry["prefix"]) != plen for entry in stored):
            raise CertificateError(f"a stored prefix does not hold length = {plen} values")
        for v, entry in zip(ladder, stored):
            want = np.array([complex(re, im) for re, im in entry["prefix"]])
            if (np.max(np.abs(v.prefix(plen) - want)) > 1e-12
                    or abs(v.limit - complex(*entry["limit"])) > 1e-12):
                raise CertificateError("certificate prefixes do not match the reconstruction")
    except KeyError as exc:
        raise CertificateError(f"certificate field {exc} is missing") from exc
    except (ConfigError, AttributeError, TypeError, ValueError) as exc:
        raise CertificateError(f"malformed certificate: {exc}") from exc
    report: dict = {"prefix_ok": True, "pairs": len(pairs)}
    if len(ladder) >= 2:
        bp = bp_test(ladder, tol=_VERIFY_TOL)
        report["bp"] = bp
        report["ladder_detected"] = bp.ladder_detected
    else:
        norms = [sup_norm(v, _SCAN_TOL).value for v in ladder]
        report["ladder_norms"] = norms
        report["ladder_detected"] = False
        report["note"] = "ladder too short for the partial-sum test"
    return report
