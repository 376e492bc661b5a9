"""Public streaming-evaluation API.

``stream_evaluate`` answers a reverse-axis-free path over an event stream in
a single pass and reports which nodes (by document-order id) were selected
together with the resource accounting of the run.  ``stream_matches`` is the
boolean variant used for selective dissemination of information (SDI): does
the document match the subscription at all?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Union as TypingUnion

from repro.streaming.matcher import StreamingMatcher
from repro.streaming.stats import StreamStats
from repro.xmlmodel.events import Event
from repro.xpath.ast import PathExpr
from repro.xpath.parser import parse_xpath


@dataclass
class StreamResult:
    """Outcome of a single-pass streaming evaluation."""

    node_ids: List[int]
    stats: StreamStats

    @property
    def matched(self) -> bool:
        """Whether the path selected at least one node."""
        return bool(self.node_ids)

    def __iter__(self):
        return iter(self.node_ids)

    def __len__(self) -> int:
        return len(self.node_ids)


def stream_evaluate(path: TypingUnion[str, PathExpr],
                    events: Iterable[Event]) -> StreamResult:
    """Evaluate a reverse-axis-free path over an event stream in one pass.

    Parameters
    ----------
    path:
        A reverse-axis-free absolute path (AST or xPath text).  Paths with
        reverse axes raise :class:`repro.errors.ReverseAxisStreamingError`;
        rewrite them first with :func:`repro.rewrite.remove_reverse_axes`.
    events:
        Any iterable of SAX-like events — from
        :func:`repro.xmlmodel.parser.iter_events` (XML text),
        :func:`repro.xmlmodel.builder.document_events` (an in-memory
        document) or a custom producer.

    The path's structural spine runs on the lazy automaton, its qualifiers
    and any members the automaton cannot serve on the expectation engine
    (see :class:`repro.streaming.matcher.StreamingMatcher`).

    Returns
    -------
    StreamResult
        The selected node ids (document-order positions) and the run's
        resource statistics.
    """
    if isinstance(path, str):
        path = parse_xpath(path)
    matcher = StreamingMatcher(path)
    node_ids = matcher.process(events)
    return StreamResult(node_ids=node_ids, stats=matcher.stats)


def stream_matches(path: TypingUnion[str, PathExpr],
                   events: Iterable[Event]) -> bool:
    """Whether the document on the stream matches the path at all (SDI check)."""
    return stream_evaluate(path, events).matched
