"""Span recorder for the traced run.

Spans are recorded from the benchmark's own code: :meth:`Recorder.install`
replaces each traced public function of the program's layers with a
wrapper, in this process only, and :meth:`Recorder.uninstall` puts the
originals back, so the untraced documents of a traced run pay nothing.
``gc.callbacks`` adds the interpreter's collections.

A span is ``[name, start_ns, end_ns, parent, doc, calls, busy_ns, size]``:
``parent`` is the index of the span that was open when it started (-1 for
none) and ``doc`` the document being served.  ``MultiMatcher.feed`` runs
once per event, so its calls inside one ``submit`` are folded into one
aggregate child of the submit span, whose ``calls`` counts them and whose
``busy_ns`` is their summed time (``start_ns`` and ``end_ns`` are the first
call's start and the last call's end); every other span is one call, with
``busy_ns`` its duration.  A collection that runs inside a traced call is a
child of that call's span and is included in its ``busy_ns``.
``size`` is the byte length of a tokenizer chunk, the collected generation
of a ``gc`` span, else 0.

Spans stay in memory and are written out by :meth:`Recorder.write` when the
run ends.
"""

from __future__ import annotations

import gc
import json
import time
from typing import Callable, List, Optional, Tuple

from repro.streaming.broker import DocumentBroker
from repro.streaming.engine import MultiMatcher, SubscriptionIndex
from repro.xmlmodel.parser import PushTokenizer
from repro.xpath.cache import QueryCache

SUBMIT = "DocumentBroker.submit"
FEED = "MultiMatcher.feed"
GC = "gc"

#: (class, method, span name) of every traced call besides ``feed``.
TRACED: Tuple[Tuple[type, str, str], ...] = (
    (PushTokenizer, "feed", "PushTokenizer.feed"),
    (PushTokenizer, "close", "PushTokenizer.close"),
    (MultiMatcher, "reset", "MultiMatcher.reset"),
    (MultiMatcher, "results", "MultiMatcher.results"),
    (MultiMatcher, "sync", "MultiMatcher.sync"),
    (SubscriptionIndex, "add_subscription", "SubscriptionIndex.add_subscription"),
    (SubscriptionIndex, "remove_subscription",
     "SubscriptionIndex.remove_subscription"),
    (SubscriptionIndex, "matcher", "SubscriptionIndex.matcher"),
    (QueryCache, "compile", "QueryCache.compile"),
    (DocumentBroker, "submit", SUBMIT),
)

NAME, START, END, PARENT, DOC, CALLS, BUSY, SIZE = range(8)


class Recorder:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: The document the next spans belong to (set by the serving loop).
        self.doc: Optional[int] = None
        #: The current submit's folded feed span, its index, and whether a
        #: feed call is running (a collection then belongs to it).
        self._feed: list = [None, -1, False]
        self._originals: List[Tuple[type, str, object]] = []

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, name: str, function: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        feed = self._feed
        clock = time.perf_counter_ns
        recorder = self
        sized = name == "PushTokenizer.feed"
        is_submit = name == SUBMIT

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, recorder.doc, 1,
                    0, len(args[1]) if sized else 0]
            spans.append(span)
            if is_submit:
                feed[0] = [FEED, 0, 0, index, recorder.doc, 0, 0, 0]
                feed[1] = len(spans)
                spans.append(feed[0])
            stack.append(index)
            span[START] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                span[END] = end
                span[BUSY] = end - span[START]
                stack.pop()

        return traced

    def _wrap_feed(self, function: Callable) -> Callable:
        feed = self._feed
        clock = time.perf_counter_ns

        def traced_feed(matcher, event):
            span = feed[0]
            feed[2] = True
            start = clock()
            try:
                return function(matcher, event)
            finally:
                end = clock()
                feed[2] = False
                if not span[CALLS]:
                    span[START] = start
                span[CALLS] += 1
                span[BUSY] += end - start
                span[END] = end

        return traced_feed

    def _on_gc(self, phase: str, info: dict) -> None:
        stack = self._stack
        if phase == "start":
            if self._feed[2]:
                parent = self._feed[1]
            else:
                parent = stack[-1] if stack else -1
            stack.append(len(self.spans))
            self.spans.append([GC, time.perf_counter_ns(), 0, parent,
                               self.doc, 1, 0, info["generation"]])
        else:
            span = self.spans[stack.pop()]
            span[END] = time.perf_counter_ns()
            span[BUSY] = span[END] - span[START]

    # -- switching -------------------------------------------------------------
    def install(self) -> None:
        if self._originals:
            return
        targets = TRACED + ((MultiMatcher, "feed", FEED),)
        for owner, attribute, name in targets:
            original = getattr(owner, attribute)
            self._originals.append(
                (owner, attribute, owner.__dict__.get(attribute)))
            wrapper = (self._wrap_feed(original) if name == FEED
                       else self._wrap(name, original))
            setattr(owner, attribute, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attribute, own in reversed(self._originals):
            if own is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)
        self._originals.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "doc", "calls", "busy_ns", "size"],
                       "spans": self.spans}, out)
