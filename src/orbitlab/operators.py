"""Concrete operator classes and the telescoping expansion.

Two operator worlds are implemented: unimodular diagonal multiplication
operators on c/c0 (stored as angle oracles so powers never drift off the
unit circle) and dense complex matrices as the desk-scale model of a
reflexive space.  Formal words over an ordered list of commuting
generators support the expansion of ``I - prod T_j^{k_j}`` into a sum of
``word * (I - T_j)`` factors.

The displayed inner sum of that expansion runs over ``l = 0 .. k_j - 1``:
``I - T^k = sum_{l<k} T^l (I - T)``.  This is the identity the statement
needs (the variant starting at ``l = 1`` equals ``T (I - T^k)`` instead)
and it is what ``telescope_expand`` implements and the exact-algebra
tests verify.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError, EmptyWordError, SpaceTagError
from .seqspace import (_FIRST_BLOCK, FiniteVector, SeqVector, TailCertificate,
                       apply_certificate, lin_comb_certificate, power_tail, sup_norm,
                       tail_bound)

__all__ = [
    "DiagonalSymbol",
    "DiagonalOperator",
    "MatrixOperator",
    "OperatorWord",
    "CommutingFamily",
    "harmonic_symbol",
    "root_perturbed_symbol",
    "constant_symbol",
    "power_apply",
    "telescope_expand",
    "word_apply",
    "word_matrix",
    "commutation_defect",
    "power_bound_estimate",
    "PowerBoundEstimate",
    "make_commuting_family",
    "read_matrix_file",
    "write_matrix_file",
]

_TWO_PI = 2.0 * math.pi
_HEAD_KS = np.arange(1, _FIRST_BLOCK + 1)  # the first block of every norm scan
# lead head coordinates, computed for every exponent of a PhaseRange; the
# rest of the head only for rows the lead leaves undecided
_LEAD = 4
# exponents per block of bulk difference decisions; a PhaseRange holds one block
_SCREEN_BLOCK = 1024


def _power_angles(n, base):
    """Angles of the n-th power symbol: ``n * base`` reduced mod 2 pi.

    ``n`` may be an int array broadcast against ``base``; every power
    symbol, its limit and every PhaseRange form their angles here, so they
    agree bit for bit.  A scalar zero ``base`` (of either sign) gives the
    +0.0 that ``np.mod`` makes of every ``n * base``, without its slow path
    on zeros.
    """
    if np.ndim(base) == 0 and base == 0:
        return np.zeros(np.shape(n))[()]
    return np.mod(n * base, _TWO_PI)


@dataclass(frozen=True)
class DiagonalSymbol:
    """Unimodular symbol ``a_k = exp(i * angle(k))`` stored as angles.

    ``tail`` certifies ``|a_k - a_limit| <= bound(K)`` for ``k > K``.
    ``unit_fixed_indices`` lists the k with ``a_k == 1`` exactly when the
    constructing family knows them (None means unknown), and
    ``limit_attained`` records whether some ``a_k`` equals the limit
    value; symbolic verdicts refuse to guess when these are unknown.
    """

    angle: Callable[[np.ndarray], np.ndarray]
    limit_angle: float
    tail: TailCertificate
    kind: str = "custom"
    params: tuple = ()
    unit_fixed_indices: tuple[int, ...] | None = None
    limit_attained: bool | None = None

    def angles(self, ks) -> np.ndarray:
        ks = np.asarray(ks, dtype=np.int64)
        return np.asarray(self.angle(ks), dtype=np.float64)

    def values(self, ks) -> np.ndarray:
        return np.exp(1j * self.angles(ks))

    @property
    def limit_value(self) -> complex:
        return complex(np.exp(1j * self.limit_angle))

    def power(self, n: int) -> "DiagonalSymbol":
        """Symbol of the n-th power, computed by angle multiplication.

        Valid for negative n as well (the inverse symbol).  Uses
        ``|a^n - b^n| <= |n| |a - b|`` for the tail certificate.
        """
        n = int(n)
        if n == 0:
            return constant_symbol(0.0)
        base = self.angle

        def angle(ks, _n=n, _base=base):
            return _power_angles(_n, np.asarray(_base(ks), dtype=np.float64))

        return DiagonalSymbol(
            angle,
            float(_power_angles(n, self.limit_angle)),
            TailCertificate(*power_tail(n, self.tail)),
            kind="custom",
            params=("power", self.kind, self.params, n),
        )

    def inverse(self) -> "DiagonalSymbol":
        return self.power(-1)


def harmonic_symbol(rate: float = 1.0) -> DiagonalSymbol:
    """Angles ``theta_k = pi / k**rate``; the symbol tends to 1 and never
    equals it."""
    if rate <= 0:
        raise ValueError("rate must be positive")

    def angle(ks, _p=rate):
        return math.pi / np.asarray(ks, dtype=np.float64) ** _p

    # |e^{i theta} - 1| = 2|sin(theta/2)| <= pi / k**rate
    return DiagonalSymbol(angle, 0.0, TailCertificate(math.pi, rate),
                          kind="harmonic", params=(rate,),
                          unit_fixed_indices=(), limit_attained=False)


def root_perturbed_symbol(m: int, rate: float = 1.0) -> DiagonalSymbol:
    """Angles ``theta_k = 2 pi / m + pi / k**rate``.

    The symbol converges to the m-th root of unity ``exp(2 pi i / m)``
    and never equals it.  For m = 2 the single index k = 1 has
    ``a_1 = 1`` (angle 2 pi); for m >= 3 no a_k is 1.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if rate <= 0:
        raise ValueError("rate must be positive")
    base = _TWO_PI / m

    def angle(ks, _b=base, _p=rate):
        return _b + math.pi / np.asarray(ks, dtype=np.float64) ** _p

    fixed: tuple[int, ...] = ()
    if m == 2 and rate > 0:
        fixed = (1,)  # pi + pi = 2 pi
    return DiagonalSymbol(angle, base, TailCertificate(math.pi, rate),
                          kind="root_perturbed", params=(m, rate),
                          unit_fixed_indices=fixed, limit_attained=False)


def constant_symbol(angle_value: float) -> DiagonalSymbol:
    """Constant symbol ``a_k = exp(i * angle_value)`` (a plain rotation)."""
    a = float(np.mod(angle_value, _TWO_PI))

    def angle(ks, _a=a):
        return np.full(np.shape(ks), _a, dtype=np.float64)

    # a_k == 1 for every k iff the angle is 0; verdict logic branches on
    # kind == "constant" rather than enumerating indices
    return DiagonalSymbol(angle, a, TailCertificate.zero(),
                          kind="constant", params=(a,),
                          unit_fixed_indices=None,
                          limit_attained=True)


@dataclass(frozen=True)
class DiagonalOperator:
    """Multiplication operator ``(T x)_k = a_k x_k`` on c or c0.

    An exact isometry for the sup-norm, invertible with inverse symbol
    ``-theta_k``.
    """

    symbol: DiagonalSymbol
    space_tag: str = "c"

    def __post_init__(self):
        if self.space_tag not in ("c", "c0"):
            raise SpaceTagError(f"unknown space tag {self.space_tag!r}")

    def apply(self, v: SeqVector) -> SeqVector:
        if self.space_tag == "c0" and v.space_tag != "c0":
            raise SpaceTagError("operator on c0 cannot act on a general c vector")
        sym = self.symbol

        def coord(ks, _v=v, _sym=sym):
            return _sym.values(ks) * _v.coords(ks)

        limit, tail, majorant, _ = apply_certificate(sym.limit_value, sym.tail, v)
        return SeqVector(coord, limit, TailCertificate(*tail), v.space_tag, majorant)

    def power(self, n: int) -> "DiagonalOperator":
        return DiagonalOperator(self.symbol.power(n), self.space_tag)

    def inverse(self) -> "DiagonalOperator":
        return DiagonalOperator(self.symbol.inverse(), self.space_tag)

    def operator_norm(self) -> float:
        return 1.0

    @functools.cached_property
    def phase_range(self) -> "PhaseRange":
        """The first-block phases of this operator's powers, built on first
        read; every diagonal cloud of the operator reads them here."""
        return PhaseRange(self)


@dataclass(frozen=True)
class MatrixOperator:
    """Dense complex N x N matrix acting on FiniteVector."""

    entries: np.ndarray
    norm_tag: str = "euclidean"

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise DimensionMismatchError(f"matrix must be square, got shape {arr.shape}")
        if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
            raise ValueError("matrix entries must be finite")
        if self.norm_tag not in ("sup", "euclidean"):
            raise ValueError(f"unknown norm tag {self.norm_tag!r}")
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def apply(self, v: FiniteVector) -> FiniteVector:
        if v.dim != self.dim:
            raise DimensionMismatchError(f"operator dim {self.dim} vs vector dim {v.dim}")
        if v.norm_tag != self.norm_tag:
            raise SpaceTagError(f"norm tags differ: {self.norm_tag} vs {v.norm_tag}")
        return FiniteVector(self.entries @ v.coords, v.norm_tag)

    def power(self, n: int) -> "MatrixOperator":
        if n < 0:
            return MatrixOperator(np.linalg.matrix_power(np.linalg.inv(self.entries), -n),
                                  self.norm_tag)
        return MatrixOperator(np.linalg.matrix_power(self.entries, n), self.norm_tag)

    def operator_norm(self) -> float:
        return matrix_norm(self.entries, self.norm_tag)


def matrix_norm(a: np.ndarray, norm_tag: str):
    """Induced operator norm of a matrix acting on (C^N, sup) or (C^N, l2);
    a float for one matrix, an array of norms for a stack of them."""
    if norm_tag == "sup":
        norms = np.max(np.sum(np.abs(a), axis=-1), axis=-1)
    else:
        norms = np.linalg.norm(a, 2, axis=(-2, -1))
    return float(norms) if a.ndim == 2 else norms


# entries in one chunk of stacked powers (16 MB of complex128)
POWER_CHUNK_ENTRIES = 1 << 20


def power_chunks(a: np.ndarray, start: np.ndarray, count: int):
    """Yield ``start, a start, a^2 start, ...`` (``count`` terms) in stacked
    chunks of at most POWER_CHUNK_ENTRIES entries.  Each term is ``a @`` the
    previous one, so it is bit for bit the term a plain loop forms."""
    per = max(1, POWER_CHUNK_ENTRIES // start.size)
    cur = start
    for lo in range(0, count, per):
        chunk = np.empty((min(per, count - lo),) + start.shape, dtype=np.complex128)
        for i in range(len(chunk)):
            chunk[i] = cur = a @ cur if lo or i else cur
        yield chunk


def power_apply(op, n: int, v):
    """Apply the n-th power, n >= 0.

    Diagonal operators compute the power symbol by angle multiplication
    (never by repeated complex products); matrices use binary
    exponentiation.
    """
    if n < 0:
        raise ValueError("power_apply needs n >= 0")
    if n == 0:
        return v
    return op.power(n).apply(v)


def _difference_rows(phases: np.ndarray, yk: np.ndarray, neg_t: np.ndarray) -> np.ndarray:
    """Rows ``phases * yk + neg_t`` as ``lin_comb([1.0, -1.0], ...)`` forms
    them, bit for bit: its ``0 + 1 * z`` only clears the sign of zero
    parts, as ``z + 0`` does.

    numpy's complex multiply rounds in the last ulp by the loop it picks,
    and it picks by shape and aliasing (a broadcast ``yk``, a product
    written over an operand).  So the product is formed from two
    contiguous arrays of one shape into a new array, the loop the
    64-coordinate rows have always taken, whatever part of the head a row
    holds."""
    rows = phases * np.broadcast_to(yk, phases.shape).copy()
    rows += 0.0
    rows += neg_t
    return rows


def _negated_term(phase_t: np.ndarray, yk: np.ndarray) -> np.ndarray:
    return complex(-1.0) * (phase_t * yk)


def difference_certificates(op: DiagonalOperator, ds, y: SeqVector) -> np.ndarray:
    """Rows ``|limit|``, ``tail.bound(_FIRST_BLOCK)`` and ``majorant`` of
    ``(T^d - I) y`` for each ``d >= 1`` in ``ds``: with the head maxima from
    ``PhaseRange``, the bracket ``norm_exceeds`` tests after its first block.
    No vector is built.  The certificate rules of ``lin_comb([1.0, -1.0],
    [power_apply(op, d, y), y])`` (the power's limit and tail, ``apply``,
    ``lin_comb``) run over the whole block, so column i equals that vector's
    certificate bit for bit."""
    if op.space_tag == "c0" and y.space_tag != "c0":
        raise SpaceTagError("operator on c0 cannot act on a general c vector")
    ds = np.asarray(ds, dtype=np.int64)
    if (ds < 1).any():
        raise ValueError("difference_certificates needs exponents >= 1")
    sym = op.symbol
    a = np.exp(1j * _power_angles(ds, sym.limit_angle))  # limit of the symbol of T^d
    u = apply_certificate(a, power_tail(ds, sym.tail), y)
    v = lin_comb_certificate([1.0, -1.0], [u, y])
    out = np.empty((3,) + ds.shape)
    out[0], out[1], out[2] = v.abs_limit, tail_bound(*v.tail, _FIRST_BLOCK), v.majorant
    return out


class PhaseRange:
    """First-block phases ``exp(i * angle(T^n)_k)``, k = 1 .. _FIRST_BLOCK,
    in two stages.

    The lead stage holds the phases of the lead coordinates k = 1 .. _LEAD
    for one block of exponents n at a time; the completion stage forms the
    other head coordinates only for the exponents a caller names.  A head
    maximum is ``max(lead, rest)``, so a completed head equals the
    64-coordinate head bit for bit, and a lead maximum above a threshold
    already proves the head above it (``norm_exceeds``'s first-block True
    exit), which settles most differences from their lead alone.

    Phases depend on the symbol and n only, not on the vector, threshold
    or tolerance, so an operator holds one range (``DiagonalOperator.
    phase_range``) and every diagonal cloud of it reads it: the greedy nets
    of several clouds, and the witness cloud and product clouds of the pair
    search.  The block and lead widths are read when the range is built.
    The range holds the lead phases of one block of exponents (64 KB at the
    default block and lead); asking for another start replaces it.
    """

    def __init__(self, op: DiagonalOperator):
        self.block, self.lead = _SCREEN_BLOCK, _LEAD
        self._base = np.asarray(op.symbol.angle(_HEAD_KS), dtype=np.float64)
        self._table: np.ndarray | None = None
        self._lo, self._filled = 0, 0

    def phases(self, n, part: slice = slice(None)) -> np.ndarray:
        """Phases of the exponent ``n`` (or of an int column of them) at the
        head coordinates ``_HEAD_KS[part]``."""
        return np.exp(1j * _power_angles(n, self._base[part]))

    def range(self, lo: int, count: int) -> np.ndarray:
        """Lead phases of the exponents ``lo .. lo + count - 1``, one row
        each; a view of the held range, valid until another start is asked
        for."""
        if not 1 <= count <= self.block:
            raise ValueError(f"a phase range holds 1 .. {self.block} exponents, not {count}")
        if self._table is None:
            self._table = np.empty((self.block, self.lead), dtype=np.complex128)
        if lo != self._lo:
            self._lo, self._filled = lo, 0
        if count > self._filled:
            ns = np.arange(lo + self._filled, lo + count, dtype=np.int64).reshape(-1, 1)
            self._table[self._filled:count] = self.phases(ns, slice(self.lead))
            self._filled = count
        return self._table[:count]

    def terms(self, y: SeqVector) -> tuple[np.ndarray, np.ndarray]:
        """``y`` and ``-y`` at the head coordinates k = 1 .. _FIRST_BLOCK:
        what every row of ``(T^n - I) y`` adds to its phases, formed once
        per vector; each stage reads its part.  ``-y`` is formed as ``-1 *
        (phases(0) * y)``, which keeps the rows bit for bit those of the
        closure vectors."""
        yk = y.coords(_HEAD_KS)
        return yk, _negated_term(self.phases(0), yk)

    def rows(self, lo: int, count: int, terms) -> np.ndarray:
        """Lead coordinates of ``(T^n - I) y`` (``terms`` of ``y``) for the
        exponents ``n = lo .. lo + count - 1``: bit for bit the first
        ``lead`` coordinates of ``lin_comb([1.0, -1.0], [power_apply(op, n,
        y), y])``."""
        lead = slice(self.lead)
        return _difference_rows(self.range(lo, count), terms[0][lead], terms[1][lead])

    def rest_rows(self, ns, terms) -> np.ndarray:
        """The other head coordinates, k = lead + 1 .. _FIRST_BLOCK, of
        ``(T^n - I) y`` for the exponents ``ns``, one row each, bit for bit
        as ``rows`` forms the lead."""
        rest = slice(self.lead, None)
        phases = self.phases(np.asarray(ns, dtype=np.int64).reshape(-1, 1), rest)
        return _difference_rows(phases, terms[0][rest], terms[1][rest])

    def lead_maxima(self, lo: int, count: int, terms) -> np.ndarray:
        """``max |((T^n - I) y)_k|`` over the lead coordinates, for the rows
        of ``rows``: a lower end of each head maximum."""
        return np.abs(self.rows(lo, count, terms)).max(axis=1)

    def complete(self, lead: np.ndarray, ns, terms) -> np.ndarray:
        """Head maxima ``max_k |((T^n - I) y)_k|``, k = 1 .. _FIRST_BLOCK,
        of the exponents ``ns`` from their lead maxima: ``max(lead, rest)``,
        each the ``head_max`` that ``norm_exceeds`` finds on the first block
        of that difference vector."""
        rest = np.abs(self.rest_rows(ns, terms)).max(axis=1, initial=0.0)
        return np.maximum(lead, rest)


@dataclass(frozen=True, order=True)
class OperatorWord:
    """Formal product ``prod_j T_j^{exponents[j]}`` over an ordered
    generator list.  Orderable so label pairs can serve as cache keys."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        if any(e < 0 for e in self.exponents):
            raise ValueError("word exponents must be nonnegative")
        object.__setattr__(self, "exponents", tuple(int(e) for e in self.exponents))


def telescope_expand(exponents: Sequence[int]) -> list[tuple[OperatorWord, int]]:
    """Expansion of ``I - prod_j T_j^{k_j}`` over difference factors.

    Returns pairs ``(word, j)`` such that

        I - prod_j T_j^{k_j}  =  sum over pairs of  word * (I - T_j),

    with ``word = prod_{i<j} T_i^{k_i} * T_j^l`` for ``l = 0 .. k_j - 1``.
    The list has length ``sum k_j``.  Generator indices are 1-based.
    """
    ks = [int(k) for k in exponents]
    if any(k < 0 for k in ks):
        raise ValueError("exponents must be nonnegative")
    if sum(ks) == 0:
        raise EmptyWordError("telescoping the empty word (all exponents zero)")
    out: list[tuple[OperatorWord, int]] = []
    m = len(ks)
    for j in range(m):
        if ks[j] == 0:
            continue
        prefix = list(ks[:j]) + [0] * (m - j)
        for l in range(ks[j]):
            word = prefix.copy()
            word[j] = l
            out.append((OperatorWord(tuple(word)), j + 1))
    return out


def word_apply(word: OperatorWord, generators: Sequence, v):
    """Apply a formal word to a vector, generator by generator."""
    if len(word.exponents) != len(generators):
        raise DimensionMismatchError("word length does not match generator count")
    out = v
    for gen, e in zip(generators, word.exponents):
        if e:
            out = power_apply(gen, e, out)
    return out


def word_matrix(word: OperatorWord, generators: Sequence[MatrixOperator]) -> np.ndarray:
    """Dense matrix of a formal word over matrix generators."""
    if len(word.exponents) != len(generators):
        raise DimensionMismatchError("word length does not match generator count")
    n = generators[0].dim
    out = np.eye(n, dtype=np.complex128)
    for gen, e in zip(generators, word.exponents):
        if e:
            out = out @ np.linalg.matrix_power(gen.entries, e)
    return out


def commutation_defect(generators: Sequence, probes: Sequence, tol: float = 1e-9) -> float:
    """Max over generator pairs and probes of ``||T_i T_j x - T_j T_i x||``."""
    if not probes:
        raise ValueError("at least one probe vector is required")
    # multiplication operators commute coordinatewise: the defect is exactly 0
    if all(isinstance(g, DiagonalOperator) for g in generators):
        return 0.0
    worst = 0.0
    for i in range(len(generators)):
        for j in range(i + 1, len(generators)):
            for x in probes:
                a = generators[i].apply(generators[j].apply(x))
                b = generators[j].apply(generators[i].apply(x))
                worst = max(worst, FiniteVector(a.coords - b.coords, a.norm_tag).norm())
    return worst


@dataclass(frozen=True)
class PowerBoundEstimate:
    sup_estimate: float
    power_bounded_flag: bool
    probe_infs: tuple[float, ...]
    horizon: int


def power_bound_estimate(op, horizon: int, probes: Sequence = (),
                         tol: float = 1e-9) -> PowerBoundEstimate:
    """Estimate ``sup_{n<=horizon} ||T^n||`` and per-probe ``inf ||T^n x||``.

    Diagonal operators are exact isometries, so the sup is exactly 1 and
    each probe inf equals ``||x||``.  For matrices the flag compares the
    first and second half of the norm curve; still-growing curves are
    flagged not power-bounded (a heuristic, the spectral certification
    in the ergodic module is the certified test).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if isinstance(op, DiagonalOperator):
        infs = tuple(sup_norm(x, tol).value for x in probes)
        return PowerBoundEstimate(1.0, True, infs, horizon)

    norms = []
    probe_vals = [[] for _ in probes]
    for chunk in power_chunks(op.entries, op.entries, horizon):
        norms.append(matrix_norm(chunk, op.norm_tag))
        for vals, x in zip(probe_vals, probes):
            vals += [FiniteVector(v, x.norm_tag).norm() for v in chunk @ x.coords]
    norms = np.concatenate(norms)
    half = horizon // 2
    if half >= 1:
        flag = bool(norms[half:].max() <= norms[:half].max() * (1 + 1e-9) + 1e-12)
    else:
        flag = bool(norms.max() <= op.operator_norm() * (1 + 1e-9))
    infs = tuple(min(vals) for vals in probe_vals)
    return PowerBoundEstimate(float(norms.max()), flag, infs, horizon)


@dataclass(frozen=True)
class CommutingFamily:
    """Ordered commuting generators with a semigroup norm bound.

    ``bound_M`` estimates ``sup_{S in semigroup} ||S|| + 1``; for
    diagonal isometries this is exactly 2.
    """

    generators: tuple
    bound_M: float
    commutation_defect_value: float

    def __post_init__(self):
        if self.bound_M < 1:
            raise ValueError("bound_M must be >= 1")


def make_commuting_family(generators: Sequence, probes: Sequence = (),
                          tol: float = 1e-8, horizon: int = 64) -> CommutingFamily:
    """Validate commutation on probes and estimate the semigroup bound."""
    gens = tuple(generators)
    if not gens:
        raise ValueError("family needs at least one generator")
    kinds = {type(g) for g in gens}
    if len(kinds) > 1:
        raise SpaceTagError("generators must be all diagonal or all matrix")
    if isinstance(gens[0], DiagonalOperator):
        # multiplication operators commute coordinatewise by construction
        defect = 0.0
        bound = 2.0
    else:
        if not probes:
            dim = gens[0].dim
            probes = [FiniteVector(np.eye(dim, dtype=np.complex128)[:, i], gens[0].norm_tag)
                      for i in range(dim)]
        defect = commutation_defect(gens, probes, tol)
        # submultiplicative bound over all words from per-generator power sups
        bound = 1.0
        for g in gens:
            bound *= power_bound_estimate(g, horizon).sup_estimate
        bound += 1.0
    if defect > tol:
        raise ValueError(f"commutation defect {defect:g} exceeds tolerance {tol:g}")
    return CommutingFamily(gens, float(bound), float(defect))


# ---------------------------------------------------------------------------
# Plain-text matrix file format: optional '#' comments, a header line with N,
# then N rows of N whitespace-separated "re,im" pairs.

def write_matrix_file(path, op: MatrixOperator) -> None:
    lines = [str(op.dim)]
    for row in op.entries:
        lines.append(" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix_file(path, norm_tag: str = "euclidean") -> MatrixOperator:
    with open(path) as fh:
        rows = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    try:
        n = int(rows[0])
    except ValueError as exc:
        raise ValueError(f"{path}: header must be the dimension N") from exc
    if n < 1:
        raise ValueError(f"{path}: dimension must be >= 1, got {n}")
    if len(rows) != n + 1:
        raise ValueError(f"{path}: expected {n} rows after the header, got {len(rows) - 1}")
    data = np.empty((n, n), dtype=np.complex128)
    for i, row in enumerate(rows[1:]):
        parts = row.split()
        if len(parts) != n:
            raise ValueError(f"{path}: row {i + 1} has {len(parts)} entries, expected {n}")
        for j, tok in enumerate(parts):
            re_s, _, im_s = tok.partition(",")
            if not _:
                raise ValueError(f"{path}: entry {tok!r} is not a re,im pair")
            data[i, j] = complex(float(re_s), float(im_s))
    return MatrixOperator(data, norm_tag)
