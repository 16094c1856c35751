"""Concrete operator classes and the telescoping expansion.

Two operator worlds are implemented: unimodular diagonal multiplication
operators on c/c0 and dense complex matrices as the desk-scale model of a
reflexive space.  A diagonal symbol is a record: a catalogued family, its
parameters and an exponent.  Its angles follow one rule (reduced mod 2 pi,
multiplied by the exponent, reduced again), so powers never drift off the
unit circle and every power of a symbol is again a record, and so are
``T^n v`` and ``(T^p - T^q) v`` (``difference``).  Formal words over an
ordered list of commuting generators support the expansion of
``I - prod T_j^{k_j}`` into a sum of ``word * (I - T_j)`` factors.

The displayed inner sum of that expansion runs over ``l = 0 .. k_j - 1``:
``I - T^k = sum_{l<k} T^l (I - T)``.  This is the identity the statement
needs (the variant starting at ``l = 1`` equals ``T (I - T^k)`` instead)
and it is what ``telescope_expand`` implements and the exact-algebra
tests verify.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, EmptyWordError, SpaceTagError
from .seqspace import (_FIRST_BLOCK, Certificate, SeqVector, TailCertificate,
                       apply_certificate, checked_coords, lin_comb_certificate, power_tail,
                       product)

__all__ = [
    "SYMBOL_FAMILIES",
    "DiagonalSymbol",
    "DiagonalOperator",
    "MatrixOperator",
    "OperatorWord",
    "harmonic_symbol",
    "root_perturbed_symbol",
    "constant_symbol",
    "power_apply",
    "difference",
    "telescope_expand",
    "word_matrix",
    "max_matrix_norm",
    "power_bound_estimate",
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
    """``n * base`` mod 2 pi, the angle rule of ``DiagonalSymbol``; a scalar
    zero ``base`` gives np.mod's +0.0 without its slow path on zeros."""
    if np.ndim(base) == 0 and base == 0:
        return np.zeros(np.shape(n))[()]
    return np.mod(n * base, _TWO_PI)


# the catalogued symbol families and the names of their parameters
SYMBOL_FAMILIES = {"harmonic": ("rate",), "root_perturbed": ("m", "rate"),
                   "constant": ("angle",)}


@dataclass(frozen=True)
class DiagonalSymbol:
    """Unimodular symbol ``a_k = exp(i * theta_k)`` of a catalogued family,
    raised to the power ``exponent``.  The families' angles: ``harmonic
    (rate)`` ``pi / k**rate``, tending to 1; ``root_perturbed (m, rate)``
    ``2 pi / m + pi / k**rate``, tending to the m-th root of unity (m = 1
    is the harmonic symbol); ``constant (angle)`` ``angle``, a rotation.

    One angle rule: ``theta_k`` and the limit angle are reduced into
    ``[0, 2 pi)``, and the angle of ``a_k^n`` is ``n * theta_k mod 2 pi``,
    so ``power(a).power(b) == power(a * b)``.  All else is derived.
    """

    kind: str
    params: tuple
    exponent: int = 1

    def __post_init__(self):
        names = SYMBOL_FAMILIES.get(self.kind)
        if names is None or len(self.params) != len(names):
            raise ValueError(f"no symbol family {self.kind}{self.params!r} in {SYMBOL_FAMILIES}")
        params = [float(v) for v in self.params]
        if not all(map(math.isfinite, params)):
            raise ValueError(f"symbol parameters must be finite, got {self.params!r}")
        if self.kind != "constant" and params[-1] <= 0:
            raise ValueError("rate must be positive")
        if self.kind == "root_perturbed":
            if params[0] < 1 or params[0] != int(params[0]):
                raise ValueError("m must be a positive integer")
            params[0] = int(params[0])
        object.__setattr__(self, "params", tuple(params))
        object.__setattr__(self, "exponent", operator.index(self.exponent))

    def _thetas(self, ks: np.ndarray) -> np.ndarray:
        """The family's angles at the int array ``ks``, in [0, 2 pi)."""
        if self.kind == "constant":
            return np.full(np.shape(ks), self._theta_limit)
        theta = math.pi / np.asarray(ks, dtype=np.float64) ** self.params[-1]
        if self.kind == "harmonic":
            return theta  # in (0, pi]
        theta = self._theta_limit + theta
        # np.mod is slow, so only m = 2 (2 pi at k = 1) takes it; m = 1 adds 0
        return np.mod(theta, _TWO_PI) if self.params[0] == 2 else theta

    @functools.cached_property
    def _theta_limit(self) -> float:
        if self.kind == "harmonic":
            return 0.0
        p = self.params[0]
        theta = float(np.mod(_TWO_PI / p if self.kind == "root_perturbed" else p, _TWO_PI))
        return 0.0 if theta == _TWO_PI else theta  # np.mod rounds a tiny -x up to 2 pi

    @functools.cached_property
    def _family_tail(self) -> TailCertificate:
        if self.kind == "constant":
            return TailCertificate.zero()
        return TailCertificate(math.pi, self.params[-1])  # |theta_k - theta_limit|

    def power_angles(self, ns, ks=None):
        """Angles of the symbol of ``T^n`` for int ``ns`` (broadcast against
        ``ks``) at ``ks``, or of the limit: every power reads them here (at a
        scalar n = 1, the reduced angles, which reducing again leaves)."""
        theta = self._theta_limit if ks is None else self._thetas(np.asarray(ks, dtype=np.int64))
        n = ns * self.exponent
        return theta if not isinstance(n, np.ndarray) and n == 1 else _power_angles(n, theta)

    def power_tails(self, ns) -> tuple:
        """Tail ``(constant, exponent, after)`` of the symbol of ``T^n``."""
        return power_tail(ns * self.exponent, self._family_tail)

    def angles(self, ks) -> np.ndarray:
        return self.power_angles(1, ks)

    def values(self, ks) -> np.ndarray:
        return np.exp(1j * self.angles(ks))

    @functools.cached_property
    def limit_angle(self) -> float:
        return float(self.power_angles(1))

    @functools.cached_property
    def limit_value(self) -> complex:
        return complex(np.exp(1j * self.limit_angle))

    @functools.cached_property
    def tail(self) -> TailCertificate:
        return TailCertificate(*self.power_tails(1))

    @property
    def unit_fixed_indices(self) -> tuple[int, ...] | None:
        """The k with ``a_k == 1`` exactly (k = 1 for m = 2, where 2 pi
        reduces to 0); None where unknown: constants and powers."""
        if self.kind == "constant" or self.exponent != 1:
            return None
        return (1,) if self.kind == "root_perturbed" and self.params[0] == 2 else ()

    @property
    def limit_attained(self) -> bool | None:
        """Whether some ``a_k`` equals the limit; None for powers of the
        families that never attain it."""
        return True if self.kind == "constant" else (None if self.exponent != 1 else False)

    def power(self, n: int) -> "DiagonalSymbol":
        """Symbol of the n-th power: the exponent multiplies (n = -1 gives the
        inverse), and n = 0 gives the identity constant."""
        n = operator.index(n)
        return type(self)(self.kind, self.params, self.exponent * n) if n else constant_symbol(0.0)


def harmonic_symbol(rate: float = 1.0) -> DiagonalSymbol:
    """Angles ``pi / k**rate``: tends to 1 and never equals it."""
    return DiagonalSymbol("harmonic", (rate,))


def root_perturbed_symbol(m: int, rate: float = 1.0) -> DiagonalSymbol:
    """Angles ``2 pi / m + pi / k**rate``: tends to ``exp(2 pi i / m)``."""
    return DiagonalSymbol("root_perturbed", (m, rate))


def constant_symbol(angle: float) -> DiagonalSymbol:
    """Angle ``angle`` at every k: a plain rotation."""
    return DiagonalSymbol("constant", (angle,))


@dataclass(frozen=True)
class DiagonalOperator:
    """Multiplication operator ``(T x)_k = a_k x_k`` on c or c0.

    An exact isometry for the sup-norm, invertible with inverse ``power(-1)``.
    """

    symbol: DiagonalSymbol
    space_tag: str = "c"

    def __post_init__(self):
        if self.space_tag not in ("c", "c0"):
            raise SpaceTagError(f"unknown space tag {self.space_tag!r}")

    def apply(self, v: SeqVector) -> SeqVector:
        """The monomial ``T v``: its coordinates are the record ``_Power``."""
        if self.space_tag == "c0" and v.space_tag != "c0":
            raise SpaceTagError("operator on c0 cannot act on a general c vector")
        limit, tail, majorant, _ = _power_certificate(self.symbol, 1, v)
        return SeqVector(_Power(self.symbol, v), limit, TailCertificate(*tail), v.space_tag,
                         majorant)

    def power(self, n: int) -> "DiagonalOperator":
        return DiagonalOperator(self.symbol.power(n), self.space_tag)

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


# ||A||_2 <= ||A||_F.  For N <= _PRUNE_DIM rounding moves the computed sides
# by at most gamma_(2N^2+2) / 2 + u (a sum of 2 N^2 squares, Higham ch. 3) and
# p(N) u (LAPACK; take p(N) = N^2): 2.2e-14 at N = 10, 4500 times below the
# slack.  A bound under 2^-511 = sqrt(tiny) may have lost squares to underflow.
_FROBENIUS_SLACK, _PRUNE_DIM, _UNDERFLOW_BOUND = 1e-10, 100, 2.0 ** -511


def max_matrix_norm(stack: np.ndarray, norm_tag: str) -> float:
    """``float(matrix_norm(stack, norm_tag).max())`` of a complex128 stack, bit
    for bit: a euclidean stack takes SVD 2-norms by decreasing Frobenius norm,
    in blocks of 8, 16, 32, ..., until the next Frobenius norm times ``1 +
    _FROBENIUS_SLACK`` is below the largest, a maximum of the full stack's own
    SVDs.  Row-sum norms, one or large matrices and bad bounds take the full stack."""
    if norm_tag == "euclidean" and len(stack) > 1 and stack.shape[-1] <= _PRUNE_DIM:
        with np.errstate(over="ignore"):  # Frobenius norms, with no stack-sized temporary
            re, im = stack.real, stack.imag
            bounds = np.sqrt(np.einsum("kij,kij->k", re, re) + np.einsum("kij,kij->k", im, im))
        if _UNDERFLOW_BOUND <= bounds.min() <= bounds.max() < np.inf:  # none over- or underflowed
            order, best, lo, size = np.argsort(-bounds, kind="stable"), 0.0, 0, 8
            while lo < len(order) and bounds[order[lo]] * (1.0 + _FROBENIUS_SLACK) >= best:
                best = max(best, float(matrix_norm(stack[order[lo:lo + size]], norm_tag).max()))
                lo, size = lo + size, 2 * size
            return best
    return float(matrix_norm(stack, norm_tag).max())


# entries in one chunk of stacked powers (16 MB of complex128)
POWER_CHUNK_ENTRIES = 1 << 20


def power_chunks(a: np.ndarray, start: np.ndarray, count: int):
    """Yield ``start, a start, a^2 start, ...`` (``count`` terms) in stacked
    chunks of at most POWER_CHUNK_ENTRIES entries.  Each term is ``a @`` the
    previous one (``start`` itself, then a contiguous row, as a loop's ``cur =
    a @ cur`` has it) written into its row, so it is bit for bit a loop's term."""
    per, prev = max(1, POWER_CHUNK_ENTRIES // start.size), start
    for lo in range(0, count, per):
        chunk = np.empty((min(per, count - lo),) + start.shape, dtype=np.complex128)
        if not lo:
            chunk[0] = start
        for row in chunk[0 if lo else 1:]:
            prev = np.matmul(a, prev, out=row)
        yield chunk


def power_apply(op: DiagonalOperator, n: int, v: SeqVector) -> SeqVector:
    """Apply the n-th power, n >= 0, of a diagonal operator: the power
    symbol comes by angle multiplication, never by repeated complex
    products."""
    if n < 0:
        raise ValueError("power_apply needs n >= 0")
    if n == 0:
        return v
    return op.power(n).apply(v)


# ---------------------------------------------------------------------------
# Diagonal vectors as data, ``_Power`` and ``_Binomial``.  One kernel and one
# certificate rule serve one vector and an int array of p alike, and every
# product is ``seqspace.product``'s real arithmetic (numpy's complex multiply
# rounds by the loop it picks for an alignment), so rows equal vectors.

def difference_coords(symbol: DiagonalSymbol, p, q: int, yk: np.ndarray, ks,
                      p_phases=None) -> np.ndarray:
    """``(T^p - T^q) y`` at ``ks`` from ``yk = y(ks)``, for an int ``p`` or an
    int column of them (one row each), with the phases of ``T^p`` where the
    caller holds them.  The float operations are ``lin_comb([1.0, -1.0],
    ...)``'s: ``0 + 1 * z`` is ``z + 0`` and adding ``-1 * w`` subtracts w."""
    def term(n, phases=None):  # T^n y; y itself at a scalar n = 0
        if phases is None and not isinstance(n, np.ndarray) and n == 0:
            return yk
        return product(np.exp(1j * symbol.power_angles(n, ks)) if phases is None else phases, yk)

    out = term(p, p_phases) + 0.0
    out -= term(q)
    return out


def _power_certificate(symbol: DiagonalSymbol, n, y):
    """Certificate of ``T^n y`` by ``apply_certificate`` for an int ``n`` or an
    int array of them (``y`` itself at a scalar n = 0)."""
    if not isinstance(n, np.ndarray) and n == 0:
        return y
    a = np.exp(1j * symbol.power_angles(n))
    return apply_certificate(a if isinstance(a, np.ndarray) else complex(a),
                             symbol.power_tails(n), y)


def difference_certificate(symbol: DiagonalSymbol, p, q: int, y: SeqVector) -> Certificate:
    """Certificate of ``(T^p - T^q) y``, exponents >= 0, for an int ``p`` or an
    int array of them: the rules of ``apply`` and ``lin_comb([1.0, -1.0], ...)``."""
    if q < 0 or ((p < 0).any() if isinstance(p, np.ndarray) else p < 0):
        raise ValueError("a difference of powers needs exponents >= 0")
    return lin_comb_certificate([1.0, -1.0], [_power_certificate(symbol, n, y) for n in (p, q)])


@dataclass(frozen=True)
class _Power:
    """Coordinates of the monomial ``T^n v``: ``symbol`` is that of ``T^n``."""

    symbol: DiagonalSymbol
    base: SeqVector

    def __call__(self, ks):
        return product(self.symbol.values(ks), checked_coords(self.base, ks))


@dataclass(frozen=True)
class _Binomial:
    """Coordinates of ``(T^p - T^q) v``, by ``difference_coords``."""

    symbol: DiagonalSymbol | None
    p: int
    q: int
    base: SeqVector

    def __call__(self, ks):
        return difference_coords(self.symbol, self.p, self.q, checked_coords(self.base, ks), ks)


def difference(u: SeqVector, w: SeqVector) -> SeqVector:
    """``u - w`` for powers ``u = T^p v``, ``w = T^q v`` of one diagonal
    operator on one base, as ``apply`` and ``power_apply`` build them (``v``
    is ``T^0 v``): the record ``(symbol, p, q, v)``.  Beside ``v`` a power is
    ``S^1 v`` for its own symbol S; two powers are powers of their family's
    symbol, and a negative one raises ValueError, as does any other pair."""
    (bu, su), (bw, sw) = ((c.base, c.symbol) if isinstance(c := v.coord, _Power) else (v, None)
                          for v in (u, w))
    if bu is w:  # w is u's base
        bw, sw = w, None
    elif bw is u:  # u is w's base
        bu, su = u, None
    if bu is not bw:
        raise ValueError("a difference needs two powers of one operator on one base")
    if su is not None and sw is not None:  # powers of their family's symbol
        if (type(su), su.kind, su.params) != (type(sw), sw.kind, sw.params):
            raise ValueError("a difference needs two powers of one operator")
        sym, p, q = type(su)(su.kind, su.params), su.exponent, sw.exponent
    else:  # T^n v and v: the powers 1 and 0 of the symbol of T^n
        sym, p, q = su if su is not None else sw, int(su is not None), int(sw is not None)
    return difference_vector(sym, p, q, bu)


def difference_vector(symbol: DiagonalSymbol, p: int, q: int, v: SeqVector) -> SeqVector:
    """The vector of the record ``(symbol, p, q, v)``, ``(T^p - T^q) v``."""
    limit, tail, majorant, _ = difference_certificate(symbol, p, q, v)
    return SeqVector(_Binomial(symbol, p, q, v), limit, TailCertificate(*tail), v.space_tag,
                     majorant)


class PhaseRange:
    """Lead phases ``exp(i * angle(T^n)_k)``, k = 1 .. _LEAD, of one block of
    exponents n (widths read when built; 64 KB by default).  They depend on
    the symbol and n only: an operator holds one range (``phase_range``)
    for the lead coordinates of ``(T^n - I) x`` in all its clouds."""

    def __init__(self, op: DiagonalOperator):
        self.block, self.lead = _SCREEN_BLOCK, _LEAD
        self.symbol = op.symbol
        self._lo, self._table = 0, np.empty((0, self.lead), dtype=np.complex128)

    def range(self, lo: int, count: int) -> np.ndarray:
        """Lead phases of the exponents ``lo .. lo + count - 1``, one row each."""
        if not 1 <= count <= self.block:
            raise ValueError(f"a phase range holds 1 .. {self.block} exponents, not {count}")
        if lo != self._lo or count > len(self._table):
            ns = np.arange(lo, lo + count, dtype=np.int64).reshape(-1, 1)
            angles = self.symbol.power_angles(ns, _HEAD_KS[:self.lead])
            self._lo, self._table = lo, np.exp(1j * angles)
        return self._table[:count]


@dataclass(frozen=True)
class OperatorWord:
    """Formal product ``prod_j T_j^{exponents[j]}`` over an ordered
    generator list."""

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


def power_bound_estimate(op: MatrixOperator, horizon: int) -> float:
    """``max_{1 <= n <= horizon} ||T^n||`` of a matrix: a sampled sup, not a
    certificate (``ergodic.certify_power_bounded`` is the certified test)."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return max(max_matrix_norm(chunk, op.norm_tag)
               for chunk in power_chunks(op.entries, op.entries, horizon))


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
