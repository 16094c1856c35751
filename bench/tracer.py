"""Outside-in tracer: spans around the calls into each orbitlab layer.

Nothing in the program changes.  ``Tracer.install`` replaces each target
function with a recording wrapper in *every* ``orbitlab`` module namespace
that holds the original object (functions are imported by name into other
modules, so patching only the defining module would silently record
nothing), and wraps the target methods on their classes.  ``uninstall``
puts the originals back.

A span has a name, a start, an end, a parent span and a report id.  A
span's self time is its duration minus the time covered by its child spans
(children of a span on one thread are nested, so that is the sum of their
durations).  Aggregates are updated as spans close; the spans themselves
are kept in flat arrays and written out when the traced run ends.  Hot leaf
calls (a cache hit in ``OrbitCloud.separated``, the innermost level of a
``SeqVector.coords`` closure chain, ...) run millions of times per pass, so
a leaf span of a name in ``FOLDED`` is stored as a per-parent count and
total duration instead of a row of its own.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from time import perf_counter

import numpy as np

# layer -> functions (``name``) and methods (``Class.name``) to wrap
TARGETS = {
    "seqspace": ("sup_norm", "norm_exceeds", "lin_comb", "SeqVector.coords",
                 "FiniteVector.norm"),
    "operators": ("power_apply", "DiagonalOperator.apply", "matrix_norm",
                  "power_bound_estimate", "read_matrix_file"),
    "orbits": ("OrbitCloud.separated", "OrbitCloud.distance", "cloud_diagnostic",
               "orbit"),
    "ergodic": ("cesaro", "diagonal_mean_ergodic_verdict", "mean_ergodic_projection",
                "certify_power_bounded", "decomposition_check"),
    "jdlg": ("jdlg_split", "ktz_check", "half_sum", "diagonal_jdlg", "spectrum_report"),
    "gallery": ("c0_witness", "bp_test", "write_certificate", "verify_certificate"),
    "cli": ("main", "write_json_atomic", "write_csv_atomic"),
}

FOLDED = frozenset({
    "seqspace.SeqVector.coords", "seqspace.FiniteVector.norm", "seqspace.lin_comb",
    "operators.matrix_norm", "operators.power_apply", "operators.DiagonalOperator.apply",
    "orbits.OrbitCloud.separated", "orbits.OrbitCloud.distance",
})
_COORDS = "seqspace.SeqVector.coords"
_SCANS = ("seqspace.sup_norm", "seqspace.norm_exceeds")
_DECISIONS = _SCANS + ("seqspace.FiniteVector.norm",)
_CACHED = ("orbits.OrbitCloud.separated", "orbits.OrbitCloud.distance")
_WRITERS = ("cli.write_json_atomic", "cli.write_csv_atomic")
_WITNESS = "gallery.c0_witness"

# frame slots
_NID, _PARENT, _CHILD, _DECIDED, _ROW, _CALLER = range(6)


class TracerError(RuntimeError):
    pass


class Tracer:
    def __init__(self):
        self.report_id = -1
        self.names: list[str] = []
        self._stack: list[list] = []
        self._undo: list[tuple] = []
        self._decisions = 0
        self._sp_name = array("i")
        self._sp_parent = array("i")
        self._sp_report = array("i")
        self._sp_start = array("d")
        self._sp_end = array("d")
        self._folds: dict[tuple[int, int], list] = {}
        self._is_seq: list[bool] = []
        self._witness = -1
        self.reset()

    # -- statistics ------------------------------------------------------

    def reset(self) -> None:
        """Start a fresh set of aggregates (spans already recorded stay)."""
        n = len(self.names)
        self._calls = [0] * n
        self._self = [0.0] * n
        self._total = [0.0] * n
        self._hits = [0] * n
        self._active = [0] * n
        self._by_caller: dict[int, float] = {}
        self.coords_root_calls = 0
        self.coords_scanned = 0
        self.witness_scans = 0
        self.bytes_written = 0

    def _per_name(self, values) -> dict:
        return {name: values[i] for i, name in enumerate(self.names)}

    @property
    def calls(self) -> dict:
        return self._per_name(self._calls)

    @property
    def self_s(self) -> dict:
        return self._per_name(self._self)

    @property
    def total_s(self) -> dict:
        """Inclusive time of the outermost span of each name."""
        return self._per_name(self._total)

    @property
    def hits(self) -> dict:
        """Calls of a caching method that issued no certified norm decision."""
        return self._per_name(self._hits)

    @property
    def seq_self_by_caller(self) -> dict:
        """seqspace self time by the nearest enclosing non-seqspace span."""
        return {self.names[k] if k >= 0 else "<none>": v
                for k, v in self._by_caller.items()}

    def layer_spans(self) -> dict:
        out: dict[str, int] = {}
        for name, n in self.calls.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0) + n
        return out

    # -- span rows -------------------------------------------------------

    def _row(self, frame: list) -> int:
        """Row of a span in the output arrays, allocated on first need."""
        row = frame[_ROW]
        if row < 0:
            parent = frame[_PARENT]
            row = frame[_ROW] = len(self._sp_name)
            self._sp_name.append(frame[_NID])
            self._sp_parent.append(self._row(parent) if parent else -1)
            self._sp_report.append(self.report_id)
            self._sp_start.append(0.0)
            self._sp_end.append(0.0)
        return row

    def _wrap(self, name: str, fn):
        if name in self.names:
            raise TracerError(f"{name} wrapped twice")
        nid = len(self.names)
        self.names.append(name)
        self._is_seq.append(name.startswith("seqspace."))
        for seq in (self._calls, self._hits, self._active):
            seq.append(0)
        for seq in (self._self, self._total):
            seq.append(0.0)

        tr = self
        stack = self._stack
        is_seq = self._is_seq[nid]
        is_seq_nid = self._is_seq
        is_coords = name == _COORDS
        is_decision = name in _DECISIONS
        is_scan = name in _SCANS
        is_cached = name in _CACHED
        is_writer = name in _WRITERS
        foldable = name in FOLDED
        pc = perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            tr._calls[nid] += 1
            tr._active[nid] += 1
            if parent is None:
                caller = -1
            elif is_seq_nid[parent[_NID]]:
                caller = parent[_CALLER]
            else:
                caller = parent[_NID]
            if is_coords and (parent is None or parent[_NID] != nid):
                tr.coords_root_calls += 1
                tr.coords_scanned += int(np.size(args[1]))
            if is_decision:
                tr._decisions += 1
                if is_scan and tr._active[tr._witness]:
                    tr.witness_scans += 1
            frame = [nid, parent, 0.0, tr._decisions, -1, caller]
            stack.append(frame)
            start = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                end = pc()
                stack.pop()
                dur = end - start
                own = dur - frame[_CHILD]
                tr._self[nid] += own
                tr._active[nid] -= 1
                if not tr._active[nid]:
                    tr._total[nid] += dur
                if is_seq:
                    tr._by_caller[caller] = tr._by_caller.get(caller, 0.0) + own
                if is_cached and frame[_DECIDED] == tr._decisions:
                    tr._hits[nid] += 1
                if parent is not None:
                    parent[_CHILD] += dur
                if foldable and parent is not None and frame[_ROW] < 0:
                    key = (tr._row(parent), nid)
                    fold = tr._folds.get(key)
                    if fold is None:
                        tr._folds[key] = [1, dur]
                    else:
                        fold[0] += 1
                        fold[1] += dur
                else:
                    row = tr._row(frame)
                    tr._sp_start[row] = start
                    tr._sp_end[row] = end
                if is_writer and not str(args[0]).endswith(".timing.json"):
                    tr.bytes_written += os.path.getsize(args[0])

        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; fail loudly if one no longer exists."""
        import orbitlab  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "orbitlab" or n.startswith("orbitlab.")) and m is not None]
        for layer, targets in TARGETS.items():
            mod = sys.modules.get(f"orbitlab.{layer}")
            if mod is None:
                raise TracerError(f"module orbitlab.{layer} not found")
            for target in targets:
                cls_name, _, attr = target.rpartition(".")
                if cls_name:
                    cls = getattr(mod, cls_name, None)
                    orig = cls.__dict__.get(attr) if cls is not None else None
                    if orig is None:
                        raise TracerError(f"orbitlab.{layer}.{target} not found")
                    self._undo.append((cls, attr, orig))
                    setattr(cls, attr, self._wrap(f"{layer}.{target}", orig))
                    continue
                orig = getattr(mod, attr, None)
                if orig is None:
                    raise TracerError(f"orbitlab.{layer}.{target} not found")
                wrapper = self._wrap(f"{layer}.{target}", orig)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._undo.append((m, key, orig))
                            setattr(m, key, wrapper)
        self._witness = self.names.index(_WITNESS)
        self.reset()

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def bindings(self) -> int:
        return len(self._undo)

    # -- output ----------------------------------------------------------

    def write_spans(self, path: str) -> int:
        """Write the recorded spans and folded leaf spans to ``path`` (.npz).

        ``name``/``parent``/``report``/``start``/``end`` are one row per
        span (``parent`` is a row index, -1 at the top); ``fold_*`` give,
        per parent row and name, the count and total duration of folded
        leaf spans.
        """
        keys = sorted(self._folds)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._sp_name, dtype=np.int32),
            parent=np.frombuffer(self._sp_parent, dtype=np.int32),
            report=np.frombuffer(self._sp_report, dtype=np.int32),
            start=np.frombuffer(self._sp_start, dtype=np.float64),
            end=np.frombuffer(self._sp_end, dtype=np.float64),
            fold_parent=np.array([k[0] for k in keys], dtype=np.int32),
            fold_name=np.array([k[1] for k in keys], dtype=np.int32),
            fold_count=np.array([self._folds[k][0] for k in keys], dtype=np.int64),
            fold_total=np.array([self._folds[k][1] for k in keys], dtype=np.float64),
        )
        return len(self._sp_name)
