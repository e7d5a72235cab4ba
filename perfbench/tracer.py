"""Spans around the calls into each riskrank layer, recorded from outside.

``Tracer.install`` replaces, in each caller module, every public function it
references from the riskrank package with a wrapper that records a span. It
also wraps the ``get``/``put`` methods of ``VectorCache`` and the
``embed``/``__call__`` methods of every embedder class those modules
reference. A span is named ``<layer>.<qualname>``, where the layer is the last
component of the callable's ``__module__``, so a function a later change adds
is traced without editing this file. ``uninstall`` restores the originals.

Spans keep name, start, end and parent in memory until the run ends;
``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from collections import Counter

# Modules whose references are wrapped: the layers that call other layers,
# plus corpus, which the benchmark's own set-up calls.
CALLER_MODULES = ("benchmark", "cli", "index", "remote", "finetune", "corpus")
EMBEDDER_METHODS = ("embed", "__call__")
CACHE_METHODS = ("get", "put")


def _layer(obj) -> str:
    return obj.__module__.rsplit(".", 1)[-1]


def _in_package(obj) -> bool:
    return str(getattr(obj, "__module__", "")).startswith("riskrank.")


def _count_texts(tracer, span, args, kwargs, result):
    texts = args[-1] if args else next(iter(kwargs.values()))
    tracer.texts[span] = 1 if isinstance(texts, str) else len(texts)


def _count_dense_rows(tracer, span, args, kwargs, result):
    bound = list(tracer.signatures[tracer.names[span]].bind(*args, **kwargs).arguments.values())
    index, queries = bound[0], bound[1]
    n_queries = 1 if getattr(queries, "ndim", 1) == 1 else len(queries)
    tracer.counters["index.dense_rows_scored"] += n_queries * index.count


def _count_cache_get(tracer, span, args, kwargs, result):
    tracer.counters["cache.hits" if result is not None else "cache.misses"] += 1


class _BaseEmbed:
    """Stands in for ``train_adapter``'s ``base_embed`` to time and count its calls."""

    def __init__(self, tracer: "Tracer", inner):
        self._inner = inner
        self._call = tracer.wrap("finetune.base_embed", inner, observe=_count_texts)
        if hasattr(inner, "embed"):
            self.embed = tracer.wrap("finetune.base_embed", inner.embed, observe=_count_texts)

    def __call__(self, text):
        return self._call(text)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter()
        self.texts: dict[int, int] = {}
        self.signatures: dict[str, inspect.Signature] = {}
        self.epoch_marks: dict[int, list[float]] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, observe=None, prepare=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                if prepare is not None:
                    args, kwargs = prepare(i, args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(self, i, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        classes = set()
        for short in CALLER_MODULES:
            module = importlib.import_module(f"riskrank.{short}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not _in_package(obj):
                    continue
                if inspect.isclass(obj):
                    classes.add(obj)
                elif inspect.isfunction(obj):
                    self._patch(module, attr, self._span_for(obj))
        for cls in sorted(classes, key=lambda c: c.__qualname__):
            if cls.__name__ == "VectorCache":
                methods = CACHE_METHODS
            elif callable(getattr(cls, "embed", None)) and not getattr(cls, "_is_protocol", False):
                methods = EMBEDDER_METHODS
            else:
                continue
            for method in methods:
                if method in vars(cls):
                    name = f"{_layer(cls)}.{cls.__name__}.{method}"
                    observe = _count_cache_get if method == "get" else (
                        _count_texts if method in EMBEDDER_METHODS else None
                    )
                    self._patch(cls, method, self.wrap(name, vars(cls)[method], observe))

    def _span_for(self, fn):
        name = f"{_layer(fn)}.{fn.__name__}"
        self.signatures[name] = inspect.signature(fn)
        if name.startswith("index.dense_search"):
            return self.wrap(name, fn, observe=_count_dense_rows)
        if name == "finetune.train_adapter":
            return self.wrap(name, fn, prepare=self._prepare_train)
        return self.wrap(name, fn)

    def _prepare_train(self, span, args, kwargs):
        signature = self.signatures["finetune.train_adapter"]
        bound = signature.bind(*args, **kwargs)
        bound.arguments["base_embed"] = _BaseEmbed(self, bound.arguments["base_embed"])
        if "epoch_callback" in signature.parameters:
            marks = self.epoch_marks.setdefault(span, [])
            user_callback = bound.arguments.get("epoch_callback")

            def mark_epoch(epoch, params):
                marks.append(time.perf_counter())
                if user_callback is not None:
                    user_callback(epoch, params)

            bound.arguments["epoch_callback"] = mark_epoch
        return bound.args, bound.kwargs

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        children: dict[int, list[int]] = {}
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                children.setdefault(parent, []).append(i)
        out = []
        for i, (start, end) in enumerate(zip(self.starts, self.ends)):
            covered = 0.0
            reach = start
            for c in sorted(children.get(i, ()), key=self.starts.__getitem__):
                lo, hi = max(self.starts[c], reach), min(self.ends[c], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((end - start) - covered)
        return out

    def outermost(self, match) -> list[int]:
        """Spans whose name matches and that have no matching ancestor."""
        hits = [match(n) for n in self.names]
        found = []
        for i, hit in enumerate(hits):
            if not hit:
                continue
            parent = self.parents[i]
            while parent >= 0 and not hits[parent]:
                parent = self.parents[parent]
            if parent < 0:
                found.append(i)
        return found

    def total(self, match) -> tuple[int, float]:
        """Call count and summed duration of the outermost matching spans."""
        spans = self.outermost(match)
        return len(spans), sum(self.ends[i] - self.starts[i] for i in spans)

    def epoch_durations(self) -> list[float]:
        """Epoch times of each traced ``train_adapter`` call.

        The first epoch starts when the call's last ``base_embed`` returns
        (or when the call starts, if it made none); each epoch ends at the
        epoch callback the tracer passed in.
        """
        durations = []
        for span, marks in self.epoch_marks.items():
            start = self.starts[span]
            for i in self.outermost(lambda n: n == "finetune.base_embed"):
                if self.starts[span] <= self.starts[i] <= self.ends[span]:
                    start = max(start, self.ends[i])
            for mark in marks:
                durations.append(mark - start)
                start = mark
        return durations


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counters."""
    self_times = tracer.self_times()
    names = tracer.names

    def exact(name):
        return lambda n: n == name

    def prefix(p):
        return lambda n: n.startswith(p)

    m: dict[str, float] = {}
    m["index.dense_calls"], m["index.dense_search_s"] = tracer.total(prefix("index.dense_search"))
    m["index.dense_rows_scored"] = tracer.counters["index.dense_rows_scored"]
    m["index.dense_build_s"] = tracer.total(exact("index.build_dense_index"))[1]
    m["index.lexical_search_s"] = tracer.total(prefix("index.lexical_search"))[1]
    m["index.lexical_build_s"] = tracer.total(exact("index.build_lexical_index"))[1]
    m["index.bm25_score_calls"] = names.count("index.bm25_score")
    m["index.rrf_s"] = tracer.total(exact("index.rrf_fuse"))[1]
    m["index.rerank_s"] = tracer.total(exact("index.rerank"))[1]

    embedder = tracer.outermost(
        lambda n: n.startswith("embedding.") and n.endswith((".embed", ".__call__"))
    )
    m["embedding.embed_s"] = sum(tracer.ends[i] - tracer.starts[i] for i in embedder)
    m["embedding.texts"] = sum(tracer.texts.get(i, 0) for i in embedder)

    m["remote.embed_calls"], m["remote.embed_s"] = tracer.total(prefix("remote."))

    m["cache.get_calls"], m["cache.get_s"] = tracer.total(exact("cache.VectorCache.get"))
    m["cache.hits"] = tracer.counters["cache.hits"]
    m["cache.misses"] = tracer.counters["cache.misses"]
    m["cache.hit_ratio"] = m["cache.hits"] / m["cache.get_calls"] if m["cache.get_calls"] else 0.0
    m["cache.put_calls"], m["cache.put_s"] = tracer.total(exact("cache.VectorCache.put"))

    m["finetune.train_s"] = tracer.total(exact("finetune.train_adapter"))[1]
    m["finetune.base_embed_calls"], base_embed_s = tracer.total(exact("finetune.base_embed"))
    m["finetune.self_s"] = m["finetune.train_s"] - base_embed_s
    epochs = tracer.epoch_durations()
    m["finetune.epoch_s"] = statistics.fmean(epochs) if epochs else 0.0
    m["finetune.adapt_calls"], m["finetune.adapt_s"] = tracer.total(exact("finetune.apply_adapter"))

    m["metrics.evaluate_s"] = tracer.total(prefix("metrics."))[1]
    m["benchmark.run_eval_self_s"] = sum(
        s for n, s in zip(names, self_times) if n == "benchmark.run_eval"
    )
    m["benchmark.emit_s"] = tracer.total(exact("benchmark.emit_report"))[1]
    m["cli.self_s"] = sum(s for n, s in zip(names, self_times) if n.startswith("cli."))

    m["corpus.synth_s"] = tracer.total(exact("corpus.synth_dataset"))[1]
    m["corpus.split_s"] = tracer.total(exact("corpus.split_pairs"))[1]
    m["corpus.load_s"] = tracer.total(exact("corpus.load_qa_pairs"))[1]
    m["trace.spans"] = len(names)
    m["trace.self_sum_s"] = sum(self_times)
    m["trace.min_self_s"] = min(self_times, default=0.0)
    return m
