"""Orbit clouds and packing-number compactness diagnostics.

An orbit cloud is a finite, labelled slice of an operator orbit together
with a certified metric.  Packing numbers of greedily built separated
sets make "relatively compact" versus "not relatively compact" a
measurable distinction at finite horizons: saturating packing numbers
are evidence of total boundedness, linearly growing ones certify
separated infinite families.

Certification convention: a pair counts as separated (distance > eps)
only when a certified lower bound on the distance exceeds eps; when the
distance cannot be resolved away from eps at the metric tolerance the
conservative answer "not separated" is used.  Verdicts are explicitly
heuristic evidence with stated thresholds, not proofs; the acceptance
suite pairs them with closed-form oracles.

Greedy nets scan points in label order (seeded from the first point,
ties broken by smallest label), so prefix clouds give prefix nets and
one pass yields the whole horizon curve.  A net grows a member at a time:
a joining member rules out each candidate after it that is not certified
more than eps away, and the next member is the first candidate left.  A
candidate meets a member exactly when it was apart from every earlier
one, so the pairs decided are those of the point-by-point rule.

Orbits of isometric diagonal operators are translation invariant and keep
a net of their own, which decides each exponent difference d at most once
per epsilon.  The first-block bracket of each ``(T^d - I) x`` comes once
per cloud, a block of d at a time and with no vector built, from the two
functions that make ``operators.difference(power_apply(op, d, x), x)``,
run over an int array of d: ``difference_certificate`` (``|limit|``, tail
bound, majorant) and ``difference_coords`` (head coordinates, the lead k
<= ``operators._LEAD`` from the phases ``op.phase_range`` holds for every
cloud of ``op``).  A lead above eps proves the head above eps, so the rest
of a head is formed only for a d whose lead and ``|limit|`` are at or
below an asked eps, or whose bracket is read, once per d.
``seqspace.exceeds_exit``, the test ``norm_exceeds`` applies after each
block, decides the whole block at every epsilon; a d it leaves open goes
to ``norm_exceeds``, which scans on from k = 65, so no decision changes.

A matrix orbit holds its points as one ``(h, N)`` stack, and a joining
member rules out its candidates in one stacked call.  A row difference is
separated when the lower end of its ``stacked_norms`` rounding bracket
``v (1 - rho)`` exceeds eps; a bracket that straddles eps is a "no".  The
bracket covers the distance between the stored points, not the rounding
in forming ``A^n x``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import SpaceTagError
from .operators import (_HEAD_KS, DiagonalOperator, MatrixOperator, difference,
                        difference_certificate, difference_coords, difference_vector,
                        power_apply, power_chunks)
from .seqspace import (_FIRST_BLOCK, FiniteVector, NormResult, SeqVector, exceeds_exit,
                       norm_bracket, norm_exceeds, stacked_norms, sup_norm, tail_bound)

__all__ = [
    "OrbitCloud",
    "CompactnessReport",
    "orbit",
    "difference_orbit",
    "cloud_diagnostic",
    "compactness_diagnostic",
    "difference_compactness_diagnostic",
    "orbit_check",
    "CHECK_HORIZONS",
]

GROWTH_FACTOR = 1.1  # >= 10% growth per horizon step counts as growing
CHECK_HORIZONS = (100, 200, 400)  # the horizons of ``orbit_check``


def _certified_above(rows: np.ndarray, norm_tag: str, eps: float):
    """Whether the norm of each finite row is certified above eps: the lower
    end of its ``stacked_norms`` bracket exceeds eps, and a bracket that
    straddles eps counts as "no"."""
    values, rho = stacked_norms(rows, norm_tag)
    return values * (1.0 - rho) > eps


class OrbitCloud:
    """The orbit points ``T^1 x .. T^h x``, labelled by their exponents
    ``range(1, h + 1)``, with a certified metric; ``vector(n)`` returns the
    point ``T^n x``.  The subclasses answer ``distance``, ``separated`` and
    ``greedy_net`` from their own arrays."""

    def __init__(self, horizon: int, vector_of, tol: float, description: str):
        self.labels = range(1, horizon + 1)
        self.vector = vector_of
        self.tol = float(tol)
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"metric tolerance must be finite and positive, got {tol!r}")
        self.description = description

    def __len__(self):
        return len(self.labels)

    # bench/tracer.py looks both names up in this class's __dict__
    def distance(self, l1, l2) -> NormResult:
        """Certified distance between two labelled points."""
        raise NotImplementedError

    def separated(self, l1, l2, eps: float) -> bool:
        """Certified decision ``distance(l1, l2) > eps``."""
        raise NotImplementedError


# states of a difference in _DiagOrbitCloud's decision arrays, as
# seqspace.exceeds_exit numbers them
_UNKNOWN, _SEPARATED, _NOT_SEPARATED = 0, 1, -1


class _DiagOrbitCloud(OrbitCloud):
    """Orbit ``T^1 x .. T^h x`` of an isometric diagonal operator.

    Isometry makes the metric translation invariant,
    ``||T^n x - T^m x|| = ||T^d x - x||`` with ``d = |n - m|``, so a
    decision is keyed by ``d`` alone and lives in one int8 state array
    per epsilon.  The first-block brackets of the differences do not
    depend on epsilon; every decision and distance starts from them.
    """

    def __init__(self, op: DiagonalOperator, x: SeqVector, horizon: int,
                 tol: float, description: str):
        if op.space_tag == "c0" and x.space_tag != "c0":
            raise SpaceTagError("operator on c0 cannot act on a general c vector")
        super().__init__(horizon, lambda n: power_apply(op, n, x), tol, description)
        self._op, self._x, self._phases = op, x, op.phase_range
        self._head = x.coords(_HEAD_KS)  # x on the head, read by every row
        # first-block brackets of d = 0 .. h-1: head maximum (the lead
        # maximum until the head is completed), |limit|, tail bound at
        # k = 64, majorant (column d = 0 is never read)
        self._brackets = np.zeros((4, horizon))
        self._whole = np.zeros(horizon, dtype=bool)  # d whose head maximum is complete
        self._headed = 0  # differences 1..this have their brackets
        self._sep: dict[float, np.ndarray] = {}  # eps -> state of each d < h
        self._screened: dict[float, int] = {}  # eps -> differences 1..this decided in bulk
        self._values: dict[int, NormResult] = {}  # d -> distance by the full scan

    def _diff_vector(self, n: int, m: int) -> SeqVector:
        return difference_vector(self._op.symbol, abs(n - m), 0, self._x)  # (T^|n - m| - I) x

    def _lead_maxima(self, lo: int, count: int) -> np.ndarray:
        """``max |((T^d - I) x)_k|`` over the lead k of ``d = lo .. lo + count -
        1``, from the range's phases: a lower end of each head maximum."""
        lead = self._phases.range(lo, count)
        ds, ks = np.arange(lo, lo + count).reshape(-1, 1), _HEAD_KS[:lead.shape[1]]
        rows = difference_coords(self._op.symbol, ds, 0, self._head[:ks.size], ks, lead)
        return np.abs(rows).max(axis=1)

    def _completed(self, lead: np.ndarray, ds: np.ndarray) -> np.ndarray:
        """The head maxima ``max(lead, rest)`` of the differences ``ds``, over
        k = 1 .. _FIRST_BLOCK: each the ``head_max`` of ``norm_exceeds``."""
        rest = slice(self._phases.lead, None)
        rows = difference_coords(self._op.symbol, ds.reshape(-1, 1), 0, self._head[rest],
                                 _HEAD_KS[rest])
        return np.maximum(lead, np.abs(rows).max(axis=1, initial=0.0))

    def _certificates(self, ds: np.ndarray) -> tuple:
        """``|limit|``, tail bound at k = _FIRST_BLOCK and majorant of each
        ``(T^d - I) x``: the rest of its first-block bracket."""
        cert = difference_certificate(self._op.symbol, ds, 0, self._x)
        return cert.abs_limit, tail_bound(*cert.tail, _FIRST_BLOCK), cert.majorant

    def _bracket_to(self, dmax: int) -> np.ndarray:
        """First-block brackets of the differences up to ``dmax`` (at least),
        one block of the phase range at a time."""
        h = self._brackets.shape[1]
        while self._headed < min(dmax, h - 1):
            lo = self._headed + 1
            count = min(self._phases.block, h - lo)
            block = self._brackets[:, lo:lo + count]
            block[0] = self._lead_maxima(lo, count)
            block[1], block[2], block[3] = self._certificates(np.arange(lo, lo + count))
            self._headed += count
        return self._brackets

    def complete(self, ds) -> np.ndarray:
        """The brackets, with the head maxima of the differences ``ds``
        completed in one batch; each head is completed at most once."""
        ds = np.asarray(ds, dtype=np.int64)
        brackets = self._bracket_to(int(ds.max(initial=0)))
        ds = ds[~self._whole[ds]]
        if ds.size:
            brackets[0, ds] = self._completed(brackets[0, ds], ds)
            self._whole[ds] = True
        return brackets

    def states(self, eps: float, dmax: int = 0) -> np.ndarray:
        """Decision states of the differences at ``eps``, every d up to
        ``dmax`` decided in bulk where its first block decides it: the
        four first-block exits of ``norm_exceeds`` (``exceeds_exit``) over
        the cached brackets.  The rest stay unknown.

        A lead maximum or ``|limit|`` above eps proves the True exit,
        which ``exceeds_exit`` takes first; only the other differences
        need their whole head, so only they are completed."""
        sep = self._sep.setdefault(eps, np.zeros(len(self.labels), dtype=np.int8))
        done = self._screened.get(eps, 0)
        if done < dmax:
            self._bracket_to(dmax)
            lo, hi = done + 1, self._headed + 1
            lead, lim = self._brackets[:2, lo:hi]
            brackets = self.complete(np.flatnonzero((lead <= eps) & (lim <= eps)) + lo)
            sep[lo:hi] = exceeds_exit(*brackets[:, lo:hi], eps, self.tol)
            self._screened[eps] = self._headed
        return sep

    def separated(self, l1, l2, eps: float) -> bool:
        """Certified decision, made once per difference and epsilon; only
        a difference its first block leaves open builds its vector and
        scans on."""
        d = abs(l1 - l2)
        sep = self.states(eps, d)
        if sep[d] == _UNKNOWN:
            ok = norm_exceeds(self._diff_vector(l1, l2), eps, self.tol,
                              head_max=self.complete([d])[0, d])
            sep[d] = _SEPARATED if ok else _NOT_SEPARATED
        return bool(sep[d] == _SEPARATED)

    def distance(self, l1, l2) -> NormResult:
        """Certified distance; ``sup_norm``'s first-block return from the
        cached bracket where it is within tol, the full scan otherwise."""
        d = abs(l1 - l2)
        if d:
            lower, upper = norm_bracket(*self.complete([d])[:, d])
            if upper - lower <= self.tol:
                return NormResult(float(lower), float(upper - lower))
        hit = self._values.get(d)
        if hit is None:
            hit = self._values[d] = sup_norm(self._diff_vector(l1, l2), self.tol)
        return hit

    def greedy_net(self, eps: float, cap: int | None = None) -> list[int]:
        """The point-by-point greedy net over the decision arrays: a joining
        member marks every candidate at once and free candidates join in
        batches, so the net does not take a loop step per member.  Open
        differences are scanned in point-by-point order, up to the cap.

        ``blocked[n]``: some member is a decided "no" away from candidate
        n; ``pending[n]``: some member was an open difference away when it
        joined, so n gets the reference check.  Every member has marked
        its differences 1..``done``, which settles each candidate up to
        ``done + 1``.
        """
        h = len(self.labels)
        limit = h if cap is None else max(cap, 1)
        sep = self.states(eps)
        blocked = np.zeros(h + 1, dtype=bool)
        pending = np.zeros(h + 1, dtype=bool)
        net = np.empty(h, dtype=np.int64)
        size = 0
        done = self._screened.get(eps, 0)

        def gap_after(done):  # smallest difference that is not separated
            rest = np.flatnonzero(sep[1:done + 1] != _SEPARATED)
            return int(rest[0]) + 1 if rest.size else done + 1

        def mark(m, lo, hi):  # member m's differences lo..hi
            hi = min(hi, h - m)
            if lo <= hi:
                states = sep[lo:hi + 1]
                blocked[m + lo:m + hi + 1] |= states == _NOT_SEPARATED
                pending[m + lo:m + hi + 1] |= states == _UNKNOWN

        gap = gap_after(done)
        n = 1
        while n <= h and size < limit:
            free = np.flatnonzero(~blocked[n:]) + n
            if not free.size:
                break
            n = int(free[0])
            if n - 1 > done:  # its difference to the first member is not decided yet
                self.states(eps, n - 1)
                new = self._screened[eps]
                gap = gap_after(new)
                if gap <= new:
                    for m in net[:size].tolist():
                        mark(m, max(done + 1, gap), new)
                done = new
                continue
            if pending[n]:
                members = net[:size]
                known = sep[n - members]
                if (known.min() == _NOT_SEPARATED
                        or not all(self.separated(n, m, eps)
                                   for m in members[known == _UNKNOWN].tolist())):
                    n += 1
                    continue
                joining = free[:1]
            else:
                joining = free[(free <= done + 1) & (free < n + gap)]
                stop = np.flatnonzero(pending[joining])  # the first pending one gets its check
                joining = joining[:stop[0] if stop.size else None][:limit - size]
            net[size:size + joining.size] = joining
            size += joining.size
            if gap <= done:
                for m in joining.tolist():
                    mark(m, gap, done)
            n = int(joining[-1]) + 1
        return (net[:size] - 1).tolist()


class _MatrixOrbitCloud(OrbitCloud):
    """Matrix orbit held as the ``(h, N)`` stack of its points, in label
    order.  Every decision reads rows of the stack by the rounding bracket
    of ``_certified_above``; a FiniteVector is built only for a point that
    is asked for."""

    def __init__(self, points: np.ndarray, tag: str, tol: float, description: str):
        if not np.isfinite(points).all():  # FiniteVector's check, once on the stack
            raise ValueError("FiniteVector coordinates must be finite")
        super().__init__(len(points), lambda n: FiniteVector(self._row(n), tag), tol,
                         description)
        self._points, self._tag = points, tag

    def _row(self, label: int) -> np.ndarray:
        return self._points[label - 1]

    def distance(self, l1, l2) -> NormResult:
        value, rho = stacked_norms(self._row(l1) - self._row(l2), self._tag)
        return NormResult(float(value), float(value * rho))

    def separated(self, l1, l2, eps: float) -> bool:
        return bool(_certified_above(self._row(l1) - self._row(l2), self._tag, eps))

    def _apart(self, member: int, candidates: np.ndarray, eps: float) -> np.ndarray:
        """Whether each candidate (a position in ``labels``) is certified
        more than eps away from the member at position ``member``: one
        stacked call for the differences to every candidate."""
        return _certified_above(self._points[candidates] - self._points[member], self._tag, eps)

    def greedy_net(self, eps: float, cap: int | None = None) -> list[int]:
        """Positions in ``labels`` of the greedy certified eps-separated net.

        A point joins when it is certified separated from every current
        member; the scan stops once the net holds ``cap`` members.  The net
        grows a member at a time: a joining member drops every candidate
        after it that ``_apart`` does not certify more than eps away, and
        the next member is the first candidate left.
        """
        limit = len(self.labels) if cap is None else max(cap, 1)
        net = [0] if len(self.labels) else []
        free = np.arange(1, len(self.labels))  # candidates after the last member
        while free.size and len(net) < limit:
            free = free[self._apart(net[-1], free, eps)]
            if free.size:
                net.append(int(free[0]))
                free = free[1:]
        return net


def orbit(op, x, horizon: int, tol: float = 1e-8) -> OrbitCloud:
    """Cloud of the points ``T^1 x .. T^horizon x`` with exponent labels.

    A diagonal cloud reads its head phases from ``op.phase_range``, which
    every cloud of ``op`` shares.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if isinstance(op, DiagonalOperator):
        return _DiagOrbitCloud(op, x, horizon, tol, "orbit")
    if isinstance(op, MatrixOperator):
        points = np.concatenate(list(power_chunks(op.entries, op.entries @ x.coords, horizon)))
        return _MatrixOrbitCloud(points, x.norm_tag, tol, "orbit")
    raise TypeError(f"unsupported operator type {type(op).__name__}")


def difference_orbit(op, x, horizon: int, tol: float = 1e-8) -> OrbitCloud:
    """Cloud of ``T^n (I - T) x`` for ``1 <= n <= horizon``."""
    if isinstance(op, DiagonalOperator):
        y = difference(x, op.apply(x))
    elif isinstance(op, MatrixOperator):
        y = FiniteVector(x.coords - op.entries @ x.coords, x.norm_tag)
    else:
        raise TypeError(f"unsupported operator type {type(op).__name__}")
    cloud = orbit(op, y, horizon, tol)
    cloud.description = "difference orbit"
    return cloud


def _greedy_counts(cloud: OrbitCloud, eps: float, checkpoints: Sequence[int]) -> list[int]:
    """Sizes of the greedy certified eps-separated net at each prefix length."""
    marks = sorted({int(c) for c in checkpoints})
    if marks[-1] > len(cloud):
        raise ValueError("checkpoint beyond cloud horizon")
    positions = cloud.greedy_net(eps)
    return [bisect_left(positions, c) for c in marks]


def _check_eps(cloud: OrbitCloud, eps: float):
    if eps <= 4 * cloud.tol:
        raise ValueError(f"epsilon {eps:g} must exceed 4 * metric tolerance {cloud.tol:g}")


@dataclass
class CompactnessReport:
    """Packing table over epsilons and horizons with a verdict."""

    epsilons: tuple[float, ...]
    horizons: tuple[int, ...]
    packing: np.ndarray            # shape (len(epsilons), len(horizons))
    verdict: str                   # saturating | growing | inconclusive
    growth_stats: dict = field(default_factory=dict)
    description: str = ""

    def csv_rows(self) -> list[tuple]:
        rows = [("horizon", "epsilon", "packing")]
        for i, eps in enumerate(self.epsilons):
            for j, h in enumerate(self.horizons):
                rows.append((h, eps, int(self.packing[i, j])))
        return rows


def _verdict(packing: np.ndarray) -> tuple[str, dict]:
    stats = {}
    n_eps, n_h = packing.shape
    ratios = packing[:, 1:] / np.maximum(packing[:, :-1], 1)
    for i in range(n_eps):
        stats[i] = [float(r) for r in ratios[i]]
    saturating = bool(np.all(packing[:, -1] == packing[:, -2])
                      and np.all(packing[:, -2] == packing[:, -3]))
    if saturating:
        return "saturating", stats
    growing = bool(np.any(np.all(ratios >= GROWTH_FACTOR, axis=1)))
    if growing:
        return "growing", stats
    return "inconclusive", stats


def _horizons(horizons: Sequence[int]) -> list[int]:
    """``horizons`` as ints, checked before any cloud is built: strictly
    increasing from at least 1, with at least 3 entries, else ValueError."""
    horizons = [int(h) for h in horizons]
    if (len(horizons) < 3 or horizons[0] < 1
            or any(b <= a for a, b in zip(horizons, horizons[1:]))):
        raise ValueError("horizons must be strictly increasing from >= 1 with >= 3 entries")
    return horizons


def cloud_diagnostic(cloud: OrbitCloud, epsilons: Sequence[float],
                     horizons: Sequence[int]) -> CompactnessReport:
    """Packing table of an existing cloud plus the saturation verdict.

    ``horizons`` must be strictly increasing from at least 1, with at least
    3 entries.
    Verdict "saturating" means every epsilon row is constant across the
    last two horizon steps; "growing" means some row grows monotonically
    by at least 10% per step; anything else is "inconclusive".
    """
    horizons = _horizons(horizons)
    if horizons[-1] > len(cloud):
        raise ValueError("largest horizon exceeds the cloud size")
    epsilons = [float(e) for e in epsilons]
    for eps in epsilons:
        _check_eps(cloud, eps)
    pack = np.empty((len(epsilons), len(horizons)), dtype=np.int64)
    for i, eps in enumerate(epsilons):
        pack[i] = _greedy_counts(cloud, eps, horizons)
    verdict, stats = _verdict(pack)
    return CompactnessReport(tuple(epsilons), tuple(horizons), pack, verdict, stats,
                             cloud.description)


def compactness_diagnostic(op, x, epsilons: Sequence[float], horizons: Sequence[int],
                           tol: float = 1e-8) -> CompactnessReport:
    """Orbit compactness diagnostic of ``{T^n x}`` up to ``max(horizons)``."""
    return cloud_diagnostic(orbit(op, x, _horizons(horizons)[-1], tol), epsilons, horizons)


def difference_compactness_diagnostic(op, x, epsilons: Sequence[float],
                                      horizons: Sequence[int],
                                      tol: float = 1e-8) -> CompactnessReport:
    """Diagnostic of the difference orbit ``{T^n (I - T) x}``.

    Its verdict covers every ``T^m``: ``I - T^m = (I + T + ... + T^{m-1})
    (I - T)``, so ``S (I - T^m) x`` lies in the m-fold sum of ``S (I - T) x``
    for the semigroup ``S = {T^n}``, and is relatively compact when that is.
    """
    cloud = difference_orbit(op, x, _horizons(horizons)[-1], tol)
    return cloud_diagnostic(cloud, epsilons, horizons)


def orbit_check(op, x, eps: float, tol: float) -> CompactnessReport:
    """The fixed grows/saturates check: the packing table at the one
    ``eps`` over ``CHECK_HORIZONS`` of the orbit of ``x``, on a cloud at
    tolerance ``min(tol, eps / 100)``."""
    cloud = orbit(op, x, CHECK_HORIZONS[-1], min(tol, eps / 100))
    return cloud_diagnostic(cloud, [eps], CHECK_HORIZONS)
