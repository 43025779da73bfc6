"""Per-layer self time, measured from outside the program.

The benchmark does not rely on spans inside ``repro``: it wraps the
public functions of each layer while a traced pass runs, records one
span per call, and charges each span's *self* time (its duration minus
the part covered by its child spans) to the span's layer.  Whatever the
wrapped calls do not cover is reported as unattributed.

Spans are kept in memory and written out once, when the run ends.

Layers are this repository's modules:

- ``ilfd``     ILFD extension (``DerivationEngine``)
- ``blocking`` candidate generation (``Blocker.block``)
- ``rules``    pair evaluation: ``RuleEngine`` and ``blocking.executor``
- ``core``     MT/NMT assembly and verification
- ``entities`` identity graph, closure, survivorship, entity builds
- ``store``    the store objects (every public method; commits timed)
- ``serving``  ``MatchLookupService``, its cache and replica pool
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

LAYERS = ("ilfd", "blocking", "rules", "core", "entities", "store", "serving")

# Store methods that change the file; other public methods but close() read.
_STORE_WRITE_PREFIXES = (
    "put_", "record_", "set_", "append_", "delete_", "remove_", "clear",
)


class _Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "child", "index")

    def __init__(self, name: str, layer: str, parent: Optional["_Span"], index: int):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.child = 0.0
        self.index = index
        self.start = time.perf_counter()
        self.end = 0.0


class LayerTracer:
    """Wraps layer entry points and accumulates self time per layer.

    A span opened on a thread with no open span of its own (a replica
    reader or the serving writer) is parented to the innermost open span
    of the thread that created the tracer: that thread is blocked on the
    hand-off, so the worker's time is charged to the worker's layer, not
    to the waiting caller.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self._owner_stack: List[_Span] = []
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self.spans: List[Tuple[str, str, float, float, int]] = []
        self.self_by_layer: Dict[str, float] = defaultdict(float)
        self.self_by_name: Dict[str, float] = defaultdict(float)
        self.total_by_name: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.paused_s = 0.0
        self._paused = False

    # -- spans ---------------------------------------------------------
    def _stack(self) -> List[_Span]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str) -> _Span:
        stack = self._stack()
        if stack:
            parent: Optional[_Span] = stack[-1]
        elif self._owner_stack:
            parent = self._owner_stack[-1]
        else:
            parent = None
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, layer, 0.0, 0.0, -1))
        span = _Span(name, layer, parent, index)
        stack.append(span)
        return span

    def _close(self, span: _Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = span.end - span.start
        own = duration - span.child
        with self._lock:
            if span.parent is not None:
                span.parent.child += duration
            self.self_by_layer[span.layer] += own
            self.self_by_name[span.name] += own
            self.total_by_name[span.name] += duration
            self.calls[span.name] += 1
            self.spans[span.index] = (
                span.name,
                span.layer,
                span.start,
                span.end,
                span.parent.index if span.parent is not None else -1,
            )

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing inside (the benchmark's output checks); the
        time is left out of the wall time the layers are shares of."""
        self._paused = True
        begin = time.perf_counter()
        try:
            yield
        finally:
            self.paused_s += time.perf_counter() - begin
            self._paused = False

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    # -- wrapping ------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attribute: str,
        layer: str,
        name: Optional[str] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attribute`` by a spanned version.

        ``after(result, *args, **kwargs)`` runs once the call returns,
        outside the span, to count work where it happens.
        """
        original = getattr(owner, attribute)
        on_instance = not isinstance(owner, type) and attribute not in vars(owner)
        span_name = name or f"{layer}.{attribute}"
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if tracer._paused:
                return original(*args, **kwargs)
            span = tracer._open(span_name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original, on_instance))

    def wrap_store(self, store: Any) -> None:
        """Span every public method of *store* (an instance or a class).

        ``transaction()`` is wrapped so that entering (BEGIN) and leaving
        (COMMIT) the outermost transaction are spans of their own; the
        commits are counted.
        """
        target = store if isinstance(store, type) else type(store)
        for attribute in sorted(dir(target)):
            if attribute.startswith("_") or attribute == "transaction":
                continue
            if isinstance(getattr(target, attribute), property):
                continue
            if not callable(getattr(store, attribute)):
                continue
            if attribute == "close":
                name = "store.close"
            elif attribute.startswith(_STORE_WRITE_PREFIXES):
                name = f"store.write.{attribute}"
            else:
                name = f"store.read.{attribute}"
            self.wrap(store, attribute, "store", name)
        self._wrap_transaction(store)

    def _wrap_transaction(self, store: Any) -> None:
        original = getattr(store, "transaction")
        on_instance = not isinstance(store, type)
        tracer = self
        depth = threading.local()

        class _Timed:
            def __init__(self, manager: Any) -> None:
                self._manager = manager

            def __enter__(self) -> Any:
                level = getattr(depth, "level", 0)
                depth.level = level + 1
                if level or tracer._paused:
                    return self._manager.__enter__()
                span = tracer._open("store.write.begin", "store")
                try:
                    return self._manager.__enter__()
                finally:
                    tracer._close(span)

            def __exit__(self, *exc: Any) -> Any:
                depth.level -= 1
                if depth.level or tracer._paused:
                    return self._manager.__exit__(*exc)
                span = tracer._open("store.write.commit", "store")
                try:
                    return self._manager.__exit__(*exc)
                finally:
                    tracer._close(span)
                    tracer.count("store.commits")

        @functools.wraps(original)
        def transaction(*args: Any, **kwargs: Any) -> _Timed:
            return _Timed(original(*args, **kwargs))

        setattr(store, "transaction", transaction)
        self._patches.append((store, "transaction", original, on_instance))

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._patches:
            owner, attribute, original, on_instance = self._patches.pop()
            if on_instance:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # -- results -------------------------------------------------------
    def layer_table(self, wall_s: float) -> Dict[str, Any]:
        """Self time per layer and per span name, plus unattributed time,
        over *wall_s* less the paused time."""
        wall_s -= self.paused_s
        attributed = sum(self.self_by_layer.values())
        layers = {
            layer: {
                "self_s": self.self_by_layer.get(layer, 0.0),
                "share_pct": 100.0 * self.self_by_layer.get(layer, 0.0) / wall_s,
            }
            for layer in LAYERS
        }
        spans = {
            name: {
                "calls": self.calls[name],
                "self_s": self.self_by_name[name],
                "total_s": self.total_by_name[name],
            }
            for name in sorted(self.self_by_name)
        }
        return {
            "wall_s": wall_s,
            "attributed_s": attributed,
            "unattributed_pct": 100.0 * max(wall_s - attributed, 0.0) / wall_s,
            "layers": layers,
            "spans": spans,
        }

    def write_spans(self, path: str) -> None:
        """All spans as JSON lines: name, layer, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, layer, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "layer": layer,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


def install_pipeline(tracer: LayerTracer) -> None:
    """Wrap the public entry points of the pipeline layers.

    Counts taken here: rows extended, candidates generated, rule
    evaluations (pairs × distinctness rules) and pairs evaluated.
    """
    from repro.blocking import base as blocking_base
    from repro.blocking.executor import ParallelPairExecutor
    from repro.core.identifier import EntityIdentifier
    from repro.entities import build as entities_build
    from repro.entities.graph import IdentityGraph
    from repro.ilfd.derivation import DerivationEngine
    from repro.rules.engine import RuleEngine
    from repro.store.sqlite import SqliteStore

    def row_extended(result: Any, *a: Any, **k: Any) -> None:
        tracer.count("ilfd.rows_extended", 1)

    # extend_relation extends row by row through extend_row.
    tracer.wrap(DerivationEngine, "extend_relation", "ilfd")
    tracer.wrap(DerivationEngine, "extend_row", "ilfd", after=row_extended)

    def candidates(result: Any, *a: Any, **k: Any) -> None:
        tracer.count("blocking.candidates", result.count)

    # Strategies override candidate_pairs only; block() is the entry point.
    tracer.wrap(blocking_base.Blocker, "block", "blocking", "blocking.block",
                after=candidates)

    def distinct_evaluated(result: Any, engine: Any, *a: Any, **k: Any) -> None:
        tracer.count("rules.rule_evaluations", len(engine.distinctness_rules))

    def executor_evaluated(result: Any, executor: Any, cands: Any, r: Any, s: Any,
                           identity: Any, distinctness: Any, **k: Any) -> None:
        tracer.count("rules.rule_evaluations", result.pairs_evaluated * len(distinctness))
        tracer.count("blocking.useful", len(result.matches))

    tracer.wrap(RuleEngine, "firing_distinctness_rules", "rules", after=distinct_evaluated)
    tracer.wrap(RuleEngine, "firing_identity_rules", "rules")
    tracer.wrap(ParallelPairExecutor, "evaluate", "rules", "rules.executor.evaluate",
                after=executor_evaluated)

    for attribute in ("__init__", "run", "matching_table", "negative_matching_table",
                      "verify"):
        tracer.wrap(EntityIdentifier, attribute, "core", f"core.{attribute}")

    tracer.wrap(IdentityGraph, "__init__", "entities", "entities.init")
    tracer.wrap(IdentityGraph, "pair_result", "entities", "entities.pairwise")
    tracer.wrap(IdentityGraph, "clusters", "entities", "entities.closure")
    tracer.wrap(IdentityGraph, "verify", "entities", "entities.verify")
    # Module attributes: callers look these up on repro.entities.build.
    tracer.wrap(entities_build, "build_entity_store", "entities", "entities.build")
    tracer.wrap(entities_build, "build_golden", "entities", "entities.build")
    tracer.wrap(entities_build, "verify_entity_store", "entities", "entities.verify")
    # Opening a store is store work; its methods are wrapped per object.
    tracer.wrap(SqliteStore, "__init__", "store", "store.open")


def install_serving(tracer: LayerTracer) -> None:
    """Wrap the serving layer and, class-wide, the SQLite store it opens."""
    from repro.serving import service as serving_service
    from repro.serving.cache import LRUCache
    from repro.serving.replica import ReplicaPool
    from repro.serving.service import MatchLookupService
    from repro.store.sqlite import SqliteStore

    install_pipeline(tracer)
    tracer.wrap(MatchLookupService, "__init__", "serving", "serving.open")
    tracer.wrap(MatchLookupService, "close", "serving", "serving.close")
    tracer.wrap(MatchLookupService, "resolve", "serving", "serving.resolve")
    tracer.wrap(MatchLookupService, "ingest", "serving", "serving.ingest")
    tracer.wrap(ReplicaPool, "run", "serving", "serving.replica_read")
    for attribute in ("get", "put", "token", "invalidate"):
        tracer.wrap(LRUCache, attribute, "serving", f"serving.cache.{attribute}")
    tracer.wrap(serving_service, "explain_pair", "core", "core.explain_pair")
    tracer.wrap_store(SqliteStore)
