"""Certified vectors in the sequence spaces c and c0, plus finite vectors.

A vector in c is represented by a coordinate oracle (vectorised over the
index), its limit, a tail certificate bounding |x_k - limit| by a
closed-form power law, and a sup majorant bounding every |x_k|.
Sup-norms are computed to a guaranteed tolerance by scanning an explicit
head of the sequence and bounding the tail with the certificate and the
majorant; every norm result carries the error bound actually achieved
rather than pretending exactness.

Coordinate oracles must be pure and deterministic: orbit diagnostics
cache distances keyed by labels and rely on re-evaluation giving
identical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import SpaceTagError, UnreachableToleranceError

__all__ = [
    "TailCertificate",
    "SeqVector",
    "FiniteVector",
    "stacked_norms",
    "NormResult",
    "sup_norm",
    "norm_exceeds",
    "norm_bracket",
    "exceeds_exit",
    "lin_comb",
    "constant_one",
    "basis_vector",
    "from_prefix",
]

# Hard cap on coordinate evaluations in a single certified norm; beyond
# this the certificate is considered too weak for the requested tolerance.
MAX_SUP_TERMS = 1 << 27

_FIRST_BLOCK = 64
_MAX_BLOCK = 1 << 20


def _require_finite(z: complex, what: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{what} must be finite, got {z!r}")
    return z


@dataclass(frozen=True)
class TailCertificate:
    """Closed-form tail bound ``bound(K) = constant * K**(-exponent)``.

    The certificate promises ``|x_k - limit| <= bound(K)`` for every
    ``k > K >= after``; for ``K < after`` it promises nothing and
    ``bound(K)`` is inf.  ``zero(after=N)`` is the exact form of a vector
    that equals its limit past index N (a finitely supported one).  A
    positive exponent makes every tolerance reachable; a nonpositive
    exponent is allowed at construction (it can still be a true bound) but
    norm computations will refuse tolerances below the constant.
    """

    constant: float
    exponent: float
    after: int = 0

    def __post_init__(self):
        if not math.isfinite(self.constant) or self.constant < 0:
            raise ValueError(f"certificate constant must be finite and >= 0, got {self.constant}")
        if not math.isfinite(self.exponent):
            raise ValueError("certificate exponent must be finite")
        if int(self.after) != self.after or self.after < 0:
            raise ValueError(f"certificate start must be an int >= 0, got {self.after!r}")
        object.__setattr__(self, "after", int(self.after))

    def bound(self, k):
        """Tail bound after index ``k`` (scalar or array); inf below ``after``."""
        return tail_bound(self.constant, self.exponent, self.after, k)

    def first_index_below(self, tol: float) -> int | None:
        """Smallest K with bound(K) <= tol, or None if unreachable."""
        if self.constant <= tol:
            return max(1, self.after)
        if self.exponent <= 0:
            return None
        k = math.ceil((self.constant / tol) ** (1.0 / self.exponent))
        return max(1, k, self.after)

    @staticmethod
    def zero(after: int = 0) -> "TailCertificate":
        """Exact certificate: ``x_k == limit`` for every ``k > after``."""
        return TailCertificate(0.0, 1.0, after)

    def __iter__(self):
        """``constant, exponent, after``: the form the certificate rules read."""
        return iter((self.constant, self.exponent, self.after))


@dataclass(frozen=True)
class SeqVector:
    """Element of c or c0 given by a vectorised coordinate oracle.

    ``coord`` maps an int64 array of indices (all >= 1) to a complex128
    array of the same shape.  ``space_tag`` is ``"c"`` or ``"c0"``; the
    latter forces ``limit == 0``.  ``majorant`` certifies ``|x_k| <=
    majorant`` for every k (inf when nothing better is known).
    """

    coord: Callable[[np.ndarray], np.ndarray]
    limit: complex
    tail: TailCertificate
    space_tag: str = "c"
    majorant: float = math.inf

    def __post_init__(self):
        if self.space_tag not in ("c", "c0"):
            raise SpaceTagError(f"unknown space tag {self.space_tag!r}")
        lim = _require_finite(self.limit, "limit")
        object.__setattr__(self, "limit", lim)
        if self.space_tag == "c0" and lim != 0:
            raise SpaceTagError("c0 vectors must have limit 0")
        majorant = float(self.majorant)
        if not majorant >= abs(lim):  # also rejects NaN
            raise ValueError(f"majorant must be >= |limit| = {abs(lim):g}, got {majorant!r}")
        object.__setattr__(self, "majorant", majorant)

    def coords(self, ks) -> np.ndarray:
        ks = np.asarray(ks, dtype=np.int64)
        if ks.size and ks.min() < 1:
            raise IndexError("sequence indices start at 1")
        return checked_coords(self, ks)

    def prefix(self, n: int) -> np.ndarray:
        """First ``n`` coordinates as a complex array."""
        return self.coords(np.arange(1, n + 1))


def checked_coords(v: SeqVector, ks: np.ndarray) -> np.ndarray:
    """``v.coords(ks)`` for checked int64 ``ks``: a chain checks them at its root."""
    return np.asarray(v.coord(ks), dtype=np.complex128)


class NormResult(NamedTuple):
    value: float
    error_bound: float


# ---------------------------------------------------------------------------
# Certificate algebra: each rule takes scalars, or arrays over a batch of
# vectors by the same float operations in the same order (the scalar case is
# one element); scalars take the builtins, cheaper than numpy's 0-d ufuncs.

def _pick(cond, yes, no):
    """``yes`` where ``cond`` holds, else ``no``; a uniform array condition
    picks one side whole, so a field a whole batch agrees on stays scalar."""
    if not isinstance(cond, np.ndarray):
        return yes if cond else no
    if cond.all():
        return yes
    return np.where(cond, yes, no) if cond.any() else no


def modulus(z):
    """``|z|`` as ``abs`` forms it on a complex: the hypot of its parts."""
    return np.hypot(z.real, z.imag) if isinstance(z, np.ndarray) else abs(z)


def product(a, b):
    """The complex product ``a * b`` as Python forms it; on arrays by its
    float operations, since numpy's complex multiply may round differently."""
    if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
        return a * b
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    out = (ar * br - ai * bi).astype(np.complex128)
    out.imag = ar * bi + ai * br
    return out


def tail_bound(constant, exponent, after, k):
    """``constant * k**(-exponent)``, inf where ``k < after``, 0 for a zero
    constant.  The power is numpy's on scalars too: its 0-d and array ``pow``
    round alike, Python's float ``**`` does not."""
    ks = np.asarray(k, dtype=float)
    b = _pick(constant > 0.0, constant * ks ** (-exponent), 0.0)
    return _pick(ks < after, math.inf, b) if isinstance(after, np.ndarray) or after else b


def combine_tails(parts):
    """Triangle-inequality combination of ``(weight >= 0, (constant, exponent,
    after))`` terms: constants ``w_i const_i`` summed in order, the weakest
    exponent among terms with ``w_i const_i > 0`` (a zero vector does not
    degrade it), the largest ``after`` among terms with ``w_i > 0``; with no
    contributing term, the zero certificate."""
    total, exponent, after = 0.0, math.inf, 0
    for w, (c, e, a) in parts:
        wc = w * c
        total = total + wc
        exponent = _pick(wc > 0.0, _pick(e < exponent, e, exponent), exponent)
        after = _pick((w > 0) & (a > after), a, after)
    return total, _pick(exponent == math.inf, 1.0, exponent), after


def power_tail(n, tail):
    """Tail of the n-th power of a unimodular symbol: ``|a^n - b^n| <= |n| |a - b|``."""
    c, e, a = tail
    return abs(n) * c, e, a


class Certificate(NamedTuple):
    """A vector's limit, tail and majorant, named as in SeqVector, and the
    ``|limit|`` its majorant takes in, which absorbs the rounding of the limit."""

    limit: complex
    tail: tuple
    majorant: float
    abs_limit: float


def _certificate(limit, tail, majorant) -> Certificate:
    size = modulus(limit)
    top = np.maximum if isinstance(majorant, np.ndarray) or isinstance(size, np.ndarray) else max
    return Certificate(limit, tail, top(majorant, size), size)


def apply_certificate(a, tail, v) -> Certificate:
    """Certificate of ``(a_k v_k)``, ``a_k`` unimodular with limit ``a`` and
    tail ``tail``: ``|a_k v_k - a v_oo| <= |v_k - v_oo| + |v_oo| |a_k - a|``."""
    tail = combine_tails([(1.0, v.tail), (modulus(v.limit), tail)])
    return _certificate(product(a, v.limit), tail, v.majorant)


def lin_comb_certificate(coeffs, vectors) -> Certificate:
    """Certificate of ``sum_i c_i v_i``: limits summed in order, tails
    combined with weights ``|c_i|``, majorant ``sum |c_i| M_i`` over the
    nonzero ``c_i``."""
    limit, majorant, tails = 0j, 0.0, []
    for c, v in zip(coeffs, vectors):
        w = abs(c)
        limit = limit + product(c, v.limit)
        if c != 0:
            majorant = majorant + w * v.majorant
        tails.append((w, v.tail))
    return _certificate(limit, combine_tails(tails), majorant)


def norm_bracket(head_max, lim, bound, majorant):
    """The bracket ``lower <= ||v|| <= upper`` after a scan up to index K.

    ``head_max`` is ``max |v_k|`` over k <= K, ``lim`` is ``|limit|``,
    ``bound`` the tail bound at K and ``majorant`` the sup majorant M:

        lower = max(head_max, lim),  upper = max(head_max, min(lim + bound, M)).

    Scalars or arrays (elementwise), so many vectors bracket at once;
    plain floats take the builtins, which cost less than numpy's 0-d ufuncs
    on the one-vector scans.
    """
    top, bottom = (np.maximum, np.minimum) if isinstance(head_max, np.ndarray) else (max, min)
    return top(head_max, lim), top(head_max, bottom(lim + bound, majorant))


def exceeds_exit(head_max, lim, bound, majorant, threshold: float, tol: float):
    """The exit test ``norm_exceeds`` applies after each block of its scan.

    1 where ``||v|| > threshold`` is proved (``lim`` or ``head_max`` above
    it); -1 where the bracket's upper end is at or below the threshold, or
    the bracket is within ``tol`` and still straddles it (then the lower
    end is at or below the threshold, so "not exceeded" is the
    conservative, sound answer); 0 where the scan must go on.  Arguments
    as for ``norm_bracket``; scalars or arrays.
    """
    lower, upper = norm_bracket(head_max, lim, bound, majorant)
    yes = (lim > threshold) | (head_max > threshold)
    no = (upper <= threshold) | (upper - lower <= tol)
    if isinstance(yes, np.ndarray):
        return np.where(yes, 1, np.where(no, -1, 0))
    return 1 if yes else -1 if no else 0


def _scan(v: SeqVector, max_terms: int, head_max: float | None = None):
    """Scan ``v`` in blocks growing from _FIRST_BLOCK up to ``max_terms``;
    after each, yield ``max |v_k|`` so far and the tail bound at the last
    index.  A given ``head_max`` stands in for the first block."""
    given = head_max is not None
    head_max = float(head_max) if given else 0.0
    k, block = 1, _FIRST_BLOCK
    while True:
        hi = min(k + block - 1, max_terms)
        if not (given and k == 1):
            vals = np.abs(v.coords(np.arange(k, hi + 1, dtype=np.int64)))
            if vals.size:
                head_max = max(head_max, float(vals.max()))
        yield head_max, float(v.tail.bound(hi))
        if hi >= max_terms:
            return
        k, block = hi + 1, min(block * 2, _MAX_BLOCK)


def sup_norm(v: SeqVector, tol: float, *, max_terms: int = MAX_SUP_TERMS) -> NormResult:
    """Certified sup-norm of a sequence vector.

    Scans coordinates in geometrically growing blocks.  After scanning
    up to index K the norm is bracketed by

        max(head_max, |limit|)  <=  ||v||  <=  max(head_max, min(|limit| + bound(K), M))

    with M the vector's majorant, and the scan stops as soon as the
    bracket width is <= tol (which includes the exact cases head_max >=
    |limit| + bound(K) and M <= max(head_max, |limit|), where a bounded
    vector closes at its first block).  The returned ``value`` is the
    lower bracket end, so ``|value - ||v||| <= error_bound <= tol``.

    Raises UnreachableToleranceError when the certificate cannot close
    the bracket within ``max_terms`` coordinate evaluations.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    lim = abs(v.limit)
    for head_max, bound in _scan(v, max_terms):
        lower, upper = norm_bracket(head_max, lim, bound, v.majorant)
        if upper - lower <= tol:
            return NormResult(lower, upper - lower)
    raise UnreachableToleranceError(
        f"certificate (constant={v.tail.constant:g}, exponent={v.tail.exponent:g}) "
        f"cannot certify tolerance {tol:g} within {max_terms} coordinates"
    )


def norm_exceeds(v: SeqVector, threshold: float, tol: float,
                 *, max_terms: int = MAX_SUP_TERMS, head_max: float | None = None) -> bool:
    """Certified decision ``||v|| > threshold``.

    Equivalent to ``value - error_bound > threshold`` for a sup_norm at
    tolerance ``tol``, but exits as soon as either side is certain: a
    head coordinate above the threshold proves exceedance immediately,
    and an upper bracket at or below it proves the opposite.  The test
    after each block is ``exceeds_exit``; diagonal orbit clouds apply the
    same function to the first block of a whole block of difference
    vectors at once, from their certificates, and call this scan
    only for the vectors it leaves open.

    ``head_max``, when given, is ``max |v_k|`` over the first block
    ``k = 1 .. _FIRST_BLOCK``, computed by the caller for many vectors
    at once; it stands in for evaluating that block, so a decision the
    first block settles evaluates no coordinate at all, and any other
    scan goes on from ``k = _FIRST_BLOCK + 1`` exactly as it would have.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if head_max is not None and max_terms < _FIRST_BLOCK:
        raise ValueError(f"head_max covers {_FIRST_BLOCK} coordinates, more than max_terms")
    lim = abs(v.limit)
    if lim > threshold:
        return True
    for head, bound in _scan(v, max_terms, head_max):
        state = exceeds_exit(head, lim, bound, v.majorant, threshold, tol)
        if state:
            return bool(state > 0)
    raise UnreachableToleranceError(
        f"cannot decide ||v|| > {threshold:g} at tolerance {tol:g} "
        f"within {max_terms} coordinates"
    )


def lin_comb(coeffs: Sequence[complex], vectors: Sequence[SeqVector]) -> SeqVector:
    """Pointwise linear combination ``sum_i coeffs[i] * vectors[i]``,
    certified by ``lin_comb_certificate``."""
    if not coeffs or len(coeffs) != len(vectors):
        raise ValueError("coeffs and vectors must be nonempty lists of equal length")
    cs = [_require_finite(c, "coefficient") for c in coeffs]
    tags = {v.space_tag for v in vectors}
    if len(tags) > 1:
        raise SpaceTagError(f"mixed space tags {sorted(tags)}")
    vs = list(vectors)

    def coord(ks, _cs=cs, _vs=vs):
        out = np.zeros(np.shape(ks), dtype=np.complex128)
        for c, v in zip(_cs, _vs):
            if c != 0:
                out = out + c * checked_coords(v, ks)
        return out

    limit, tail, majorant, _ = lin_comb_certificate(cs, vs)
    return SeqVector(coord, limit, TailCertificate(*tail), vs[0].space_tag, majorant)


@dataclass(frozen=True)
class FiniteVector:
    """Finite coordinate vector for the matrix model.

    ``norm_tag`` selects the norm the ambient space carries: ``"sup"``
    for the max-modulus norm, ``"euclidean"`` for the 2-norm.
    """

    coords: np.ndarray
    norm_tag: str = "euclidean"

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=np.complex128)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("FiniteVector needs a 1-d array of length >= 1")
        if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
            raise ValueError("FiniteVector coordinates must be finite")
        if self.norm_tag not in ("sup", "euclidean"):
            raise ValueError(f"unknown norm tag {self.norm_tag!r}")
        object.__setattr__(self, "coords", arr)

    def norm(self) -> float:
        if self.norm_tag == "sup":
            return float(np.max(np.abs(self.coords)))
        return float(np.linalg.norm(self.coords))


_UNIT_ROUNDOFF = 2.0 ** -53


def stacked_norms(rows: np.ndarray, norm_tag: str) -> tuple[np.ndarray, float]:
    """Norms of a stack of finite vectors (over the last axis) and their
    relative rounding radius ``rho``.

    The sup norm is the maximum of ``abs``.  The euclidean norm is the
    square root of the sum of ``re**2 + im**2``; a row whose sum is below
    ``N * 2**-1021`` (a square may have underflowed) or overflowed takes it
    again on the row scaled, exactly, by the power of two that brings its
    largest part into [1/2, 1).  Let each row be the stored data
    itself or ``p - q`` of two stored points formed in floating point (one
    rounding per real part).  Then every returned norm ``v`` of at least
    2**-1022 brackets the exact norm ``w`` of the stored data:
    ``v (1 - rho) <= w <= v (1 + rho)``.  With u = 2**-53 and
    ``gamma_k = k u / (1 - k u)`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, ch. 3):

    - the sup norm takes ``|v/w - 1| <= gamma_3``: a subtraction, and libm's
      ``hypot`` within one ulp;
    - a euclidean norm over N coordinates takes ``gamma_{2N+4}``: the
      subtraction and the square of each of 2N real parts, at most 2N - 1
      additions on the way of any term, whatever the summation order
      (stacked or per vector, BLAS dot or pairwise), the square root, and
      one unit for the squares lost to underflow, at most ``2N * 2**-1075``
      against a sum of at least ``2N * 2**-1022``;
    - ``rho`` is ``gamma_{k+2}`` for that ``gamma_k``.  The two extra units
      cover the rounding of ``1 - rho`` and of the product ``v * (1 - rho)``
      that a decision forms, so ``v * (1 - rho) > eps`` in floating point
      proves ``w > eps``.

    The bracket certifies the distance between the *stored* points only;
    how far a stored ``A^n x`` is from the exact power is not in it.
    """
    if norm_tag == "sup":
        return np.abs(rows).max(axis=-1), _gamma(3 + 2)
    dim = rows.shape[-1]
    with np.errstate(over="ignore", under="ignore"):
        sums = (rows.real ** 2 + rows.imag ** 2).sum(axis=-1)
    low = ~((sums >= dim * 2.0 ** -1021) & (sums < np.inf))
    values = np.sqrt(sums)
    if low.any():
        few = rows.reshape(-1, dim)[low.reshape(-1)]
        _, exps = np.frexp(np.maximum(np.abs(few.real), np.abs(few.imag)).max(axis=-1))
        re, im = (np.ldexp(part, -exps[:, None]) for part in (few.real, few.imag))
        values = np.array(values)  # writable; 0-d for a single row
        values[low] = np.ldexp(np.sqrt((re ** 2 + im ** 2).sum(axis=-1)), exps)
    return values, _gamma(2 * dim + 4 + 2)


def _gamma(k: int) -> float:
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


# ---------------------------------------------------------------------------
# Constructors

def constant_one(space_tag: str = "c") -> SeqVector:
    """The constant-one sequence (limit 1, exact certificate)."""
    return SeqVector(lambda ks: np.ones(np.shape(ks), dtype=np.complex128),
                     1.0, TailCertificate.zero(), space_tag, 1.0)


def basis_vector(index: int, space_tag: str = "c0") -> SeqVector:
    """Standard basis vector e_index (a c0 element)."""
    if index < 1:
        raise IndexError("basis index starts at 1")

    def coord(ks, _i=index):
        return np.where(np.asarray(ks) == _i, 1.0 + 0.0j, 0.0 + 0.0j)

    return SeqVector(coord, 0.0, TailCertificate.zero(index), space_tag, 1.0)


def from_prefix(prefix: Sequence[complex], limit: complex,
                tail: TailCertificate | None = None, space_tag: str = "c") -> SeqVector:
    """Vector equal to ``prefix`` on its first indices and ``limit`` beyond.

    With the default certificate, exact past the prefix, this is the
    generic way to build eventually-constant test vectors.  Its
    coordinates past the prefix are exactly ``limit`` whatever ``tail``
    says, so its majorant is ``max(max |prefix|, |limit|)``, with ``|limit|``
    rounded both ways.
    """
    arr = np.asarray(list(prefix), dtype=np.complex128)
    if not np.isfinite(arr).all():
        raise ValueError("prefix values must be finite")
    lim = complex(limit)

    def coord(ks, _arr=arr, _lim=lim):
        ks = np.asarray(ks, dtype=np.int64)
        out = np.full(ks.shape, _lim, dtype=np.complex128)
        mask = ks <= _arr.size
        out[mask] = _arr[ks[mask] - 1]
        return out

    if tail is None:
        tail = TailCertificate.zero(arr.size)
    # a scan measures |limit| by np.abs, which may round one unit either side
    # of Python's abs; the majorant takes the larger
    majorant = max(float(np.abs(arr).max(initial=0.0)), abs(lim),
                   float(np.abs(np.complex128(lim))))
    return SeqVector(coord, lim, tail, space_tag, majorant)
