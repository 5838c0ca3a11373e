"""Span tracer for the benchmark's traced run.

The traced run wraps the program's functions at each module boundary at run
time, in this process only, and records one span (name, start, end, parent)
per wrapped call. Nothing in the program is edited, and the wrappers are
removed again after every traced run, so untraced runs never go through
them. A boundary that a version of the program no longer has is listed in
``absent`` and simply not traced.

Self time is a span's duration minus the time its child spans cover. Spans
run strictly nested on one thread, so that is the sum of the children's
durations. The part of each wrapped call that falls outside its own span
is calibrated once (``calibrate``) and charged to a ``trace`` layer instead
of the caller (never taking the caller's self time below zero), together
with the time of the tracer's own hooks. So the
reported self times and durations estimate the untraced ones, and all
layers still add up to the traced run's wall time. An oracle call whose
parent is the run itself, not an algorithm call, is the harness re-scoring
a record; it and everything below it are attributed to ``bench.rescore``.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

_now = time.perf_counter_ns
_MISSING = object()

MAIN, RESCORE = 0, 1
ROOT = "bench.run"
SPAN_FIELDS = ("trace", "name", "start_ns", "end_ns", "parent")

# The algorithm classes whose step/query are the sliding layer's boundary.
SLIDING_CLASSES = ("SlidingWindowReduction", "SlidingWindowDP", "SieveNaive", "SieveGreedy", "PrioritySample")


class Tracer:
    def __init__(self):
        self.active = False
        self.overhead_ns = 0.0
        self.stack: list[list[int]] = []
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self._root = self._id(ROOT)
        self._eval = self._id("objectives.eval")

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- recording ---------------------------------------------------------

    def begin(self, trace_id: int, keep: bool) -> None:
        """Start one traced run; spans are stored only when ``keep`` is set."""
        self.trace_id = trace_id
        self.keep = keep
        self.spans = array("q")
        self.stack: list[list[int]] = []
        self.agg: dict[tuple[int, int], list[int]] = {}
        self.marginal_keys: set | None = set()
        self.degenerate = 0
        self.hook_ns = 0
        self.trace_ns = 0.0
        self.inspections: list[tuple[int | None, int | None, int | None]] = []
        self.active = True
        self._root_frame = self._enter(self._root)

    def end(self) -> int:
        """Close the run's root span and return its duration in ns."""
        self.active = False
        return self._exit(self._root_frame)

    def _enter(self, nid: int) -> list[int]:
        stack = self.stack
        if stack:
            parent = stack[-1]
            ctx = parent[1]
            if len(stack) == 1 and nid == self._eval:
                ctx = RESCORE
            parent_idx = parent[2]
        else:
            ctx, parent_idx = MAIN, -1
        idx = -1
        if self.keep:
            idx = len(self.spans) // 5
            self.spans.extend((self.trace_id, nid, 0, 0, parent_idx))
        # [name, context, span index, child ns, start ns, ns of overhead
        # removed below, child count]
        frame = [nid, ctx, idx, 0, 0, 0.0, 0]
        stack.append(frame)
        frame[4] = _now()
        return frame

    def _exit(self, frame: list[int]) -> int:
        """Close a span; returns its raw duration in ns."""
        end = _now()
        start = frame[4]
        self.stack.pop()
        dur = end - start
        # The children's wrapper overhead outside their own spans landed in
        # this span's self time; move it to the trace layer, never below 0.
        raw_self = dur - frame[3]
        own = min(frame[6] * self.overhead_ns, max(raw_self, 0))
        removed = frame[5] + own
        self.trace_ns += own
        key = (frame[1], frame[0])
        acc = self.agg.get(key)
        if acc is None:
            self.agg[key] = [1, dur - removed, raw_self - own]
        else:
            acc[0] += 1
            acc[1] += dur - removed
            acc[2] += raw_self - own
        if self.stack:
            parent = self.stack[-1]
            parent[3] += dur
            parent[5] += removed
            parent[6] += 1
        if frame[2] >= 0:
            i = frame[2] * 5
            self.spans[i + 2] = start
            self.spans[i + 3] = end
        return dur

    def _hook(self, hook, args, result) -> None:
        # Hook time is the tracer's own: it is taken out of the caller's self
        # time and reported as the ``trace`` layer.
        t0 = _now()
        hook(self, args, result)
        spent = _now() - t0
        caller = self.stack[-1]
        caller[3] += spent
        caller[5] += spent
        self.hook_ns += spent

    def wrap(self, name: str, fn, pre=None, post=None):
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if pre is not None:
                tracer._hook(pre, args, None)
            frame = tracer._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if post is not None:
                tracer._hook(post, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing the wrappers -------------------------------------------

    def install(self, bench, objectives, streaming, sliding) -> None:
        """Wrap every boundary the traced run measures (see the module docstring)."""
        self.absent = []
        self._patch(bench, "load_dense_csv", "ingest.load")
        self._patch(bench, "load_set_stream", "ingest.load")
        self._patch(bench, "normalize_columns_then_rows", "ingest.normalize")
        self._patch(bench, "estimate_upper_bound", "bench.prescan")
        self._patch(bench, "make_oracle", "objectives.build")
        for cls in ("CoverageOracle", "IVMOracle"):
            self._patch_class(objectives, cls, "marginal", "objectives.marginal", pre=_note_marginal)
            self._patch_class(objectives, cls, "eval", "objectives.eval")
        self._patch_class(objectives, "CholState", "probe", "objectives.probe", post=_note_degenerate)
        self._patch_class(objectives, "CholState", "from_vectors", "objectives.factor_build")
        self._patch_class(objectives, "CholState", "copy", "objectives.factor_copy")
        self._patch_class(streaming, "SieveStream", "step", "streaming.sieve_step")
        self._patch(sliding, "greedy_select", "streaming.greedy")
        for cls in SLIDING_CLASSES:
            self._patch_class(sliding, cls, "step", "sliding.step")
            self._patch_class(sliding, cls, "query", "sliding.query", post=_inspect)
        self._patch_class(sliding, "SlidingWindowReduction", "prune", "sliding.prune")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def _patch_class(self, module, cls_name: str, attr: str, name: str, pre=None, post=None) -> None:
        cls = getattr(module, cls_name, None)
        if cls is None:
            self.absent.append(f"{module.__name__}.{cls_name}")
            return
        self._patch(cls, attr, name, pre, post)

    def _patch(self, owner, attr: str, name: str, pre=None, post=None) -> None:
        own = vars(owner).get(attr, _MISSING)
        found = own if own is not _MISSING else getattr(owner, attr, _MISSING)
        if found is _MISSING:
            where = f"{owner.__module__}.{owner.__qualname__}" if isinstance(owner, type) else owner.__name__
            self.absent.append(f"{where}.{attr}")
            return
        if isinstance(found, classmethod):
            new = classmethod(self.wrap(name, found.__func__, pre, post))
        else:
            new = self.wrap(name, found, pre, post)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, own))

    # -- reading a finished run --------------------------------------------

    def totals(self, name: str, ctx: int = MAIN) -> tuple[int, int, int]:
        """(calls, total ns, self ns) of the spans named ``name`` in ``ctx``, overhead removed."""
        nid = self._ids.get(name)
        acc = self.agg.get((ctx, nid)) if nid is not None else None
        return tuple(acc) if acc else (0, 0, 0)

    def layer_self_ns(self) -> dict[str, int]:
        """Self time per layer; the root's own time is ``unattributed``."""
        layers: dict[str, int] = {}
        for (ctx, nid), (_, _, self_ns) in self.agg.items():
            name = self.names[nid]
            if nid == self._root:
                layer = "unattributed"
            elif ctx == RESCORE:
                layer = "bench.rescore"
            else:
                layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0) + self_ns
        layers["trace"] = self.hook_ns + self.trace_ns
        return layers

    def span_count(self) -> int:
        return sum(acc[0] for acc in self.agg.values())

    def calibrate(self, calls: int = 20_000, trials: int = 15) -> float:
        """Measure the tracer's cost per wrapped call; returns the whole cost in ns.

        Also sets ``overhead_ns``, the part of that cost that falls outside
        the wrapped call's own span. The fastest of ``trials`` short trials
        is kept, so a slow spell of the host does not inflate it.
        """

        # Shaped like the commonest boundary, ``oracle.marginal(item, ids)``.
        def noop(oracle, item, ids):
            return None

        args = (self, 1, [])

        traced = self.wrap("trace.calibrate", noop)
        self.overhead_ns = 0.0
        whole = outside = float("inf")
        for _ in range(trials):
            t0 = _now()
            for _ in range(calls):
                pass
            loop = _now() - t0
            t0 = _now()
            for _ in range(calls):
                noop(*args)
            plain = _now() - t0
            self.begin(trace_id=-1, keep=False)
            t0 = _now()
            for _ in range(calls):
                traced(*args)
            wrapped = _now() - t0
            self.end()
            inside = self.totals("trace.calibrate")[1]
            whole = min(whole, (wrapped - plain) / calls)
            outside = min(outside, (wrapped - inside - loop) / calls)
        self.overhead_ns = outside
        return whole


def _note_marginal(tracer: Tracer, args, result) -> None:
    # args: (oracle, item_id, ids). A later oracle API without that shape
    # makes the distinct-query ratio absent instead of failing the run.
    keys = tracer.marginal_keys
    if keys is None:
        return
    try:
        keys.add((args[1], tuple(args[2])))
    except (IndexError, TypeError):
        tracer.marginal_keys = None


def _note_degenerate(tracer: Tracer, args, result) -> None:
    ext = result[1] if isinstance(result, tuple) and len(result) == 2 else None
    if getattr(ext, "degenerate", False):
        tracer.degenerate += 1


def _inspect(tracer: Tracer, args, result) -> None:
    """After a harness query, sample the algorithm's live structure."""
    if len(tracer.stack) == 1:
        tracer.inspections.append(inspect_algorithm(args[0]))


def inspect_algorithm(alg) -> tuple[int | None, int | None, int | None]:
    """(live reduction instances, live thresholds, retained item references); None when absent."""
    instances = getattr(alg, "instances", None)
    live = len(instances) if isinstance(instances, list) else None
    thresholds = getattr(alg, "thresholds", None)
    if thresholds is not None:
        n_thresholds = len(thresholds)
    elif instances is not None:
        inner = [getattr(getattr(inst, "alg", None), "thresholds", None) for inst in instances]
        n_thresholds = None if any(t is None for t in inner) else sum(len(t) for t in inner)
    else:
        n_thresholds = None
    counter = getattr(alg, "retained_count", None)
    retained = counter() if callable(counter) else None
    return live, n_thresholds, retained


def write_spans(path: Path, names: list[str], traces: dict[int, tuple[str, array]]) -> None:
    """Write kept spans as one (N, 5) int64 array plus the name and trace tables."""
    blocks = [np.frombuffer(spans, dtype=np.int64).reshape(-1, 5) for _, spans in traces.values()]
    spans = np.concatenate(blocks) if blocks else np.zeros((0, 5), dtype=np.int64)
    labels = [f"{tid}:{label}" for tid, (label, _) in traces.items()]
    np.savez_compressed(path, spans=spans, fields=np.array(SPAN_FIELDS), names=np.array(names), traces=np.array(labels))
