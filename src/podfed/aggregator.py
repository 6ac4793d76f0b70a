"""Untrusted third-party aggregator.

Fetches per-file summaries from pods and folds them into one combined
summary per quad component, alongside the list of sources it covers. The
aggregator only ever handles source URIs and serialized summaries; raw
quads, policies and keys never cross its interface, which is what lets it
stay untrusted.

Bitmap union is not invertible, so a change to one source is patched in:
only the bits the source's old filter set and its new one does not can
clear, and just those bytes are re-read from the other sources' cached
file summaries (``summary_patch``). Maintenance is notification driven,
plus an explicit full rescan that recombines from scratch.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Sequence

from .quads import COMPONENTS
from .summary import (
    AmfParams,
    BloomFilter,
    FilterFactory,
    ParamsMismatchError,
    Summary,
    summary_combine,  # noqa: F401  (kept at this name: perfbench's tracer wraps it)
    summary_patch,
    summary_union,
)

SourceList = tuple[str, ...]

FetchSummary = Callable[[str], Summary]


def _checked(uri: str, summary: Summary, empty) -> Summary:
    """``summary`` if each of its filters has ``empty``'s type and parameters."""
    for f in summary.filters():
        if type(f) is not type(empty) or f.params != empty.params:
            raise ParamsMismatchError(
                f"source {uri}: cannot combine incompatible summaries: {f!r} vs {empty!r}"
            )
    return summary


def create_aggregated_summary(
    sources: Sequence[str],
    fetch: FetchSummary,
    params: AmfParams,
    filter_cls: FilterFactory = BloomFilter,
) -> tuple[Summary, SourceList]:
    """Fold the file summaries of ``sources`` into one combined summary.

    Sources are deduplicated but keep their first-seen order. Every fetched
    summary must use identical parameters; a mismatch is rejected with the
    offending source named (no cross-parameter merge is attempted).
    """
    ordered = tuple(dict.fromkeys(sources))
    empty = filter_cls(params)
    summaries = [_checked(uri, fetch(uri), empty) for uri in ordered]
    filters = {
        name: summary_union(empty, *(s.component(name) for s in summaries))
        for name in COMPONENTS
    }
    return Summary(**filters, sources=ordered), ordered


@dataclass(frozen=True)
class _Snapshot:
    summary: Summary
    stale: frozenset[str]


class Aggregator:
    """Maintains the combined summary and source list for one federation.

    Readers always see a consistent (summary, sources, generation)
    snapshot; updates build new filters and swap the snapshot atomically.
    If a source cannot be re-fetched, or returns a summary with other
    parameters, the previous summary is kept and the source is flagged
    stale rather than dropped.
    """

    def __init__(
        self,
        fetch: FetchSummary,
        sources: Sequence[str],
        params: AmfParams,
        filter_cls: FilterFactory = BloomFilter,
    ):
        self._fetch = fetch
        self._params = params
        self._filter_cls = filter_cls
        self._empty = filter_cls(params)
        self._lock = threading.Lock()
        self._cache: dict[str, Summary] = {}
        ordered = tuple(dict.fromkeys(sources))
        for uri in ordered:
            self._cache[uri] = fetch(uri)
        self._snapshot = _Snapshot(self._recombine(ordered, generation=0), frozenset())

    def _recombine(self, sources: SourceList, generation: int) -> Summary:
        combined, _ = create_aggregated_summary(
            sources, self._cache.__getitem__, self._params, self._filter_cls
        )
        combined.generation = generation
        return combined

    def _refetch(self, uri: str) -> Summary | None:
        """The source's new summary, or None when the fetch fails or the
        summary cannot be combined with the others (fail closed)."""
        try:
            return _checked(uri, self._fetch(uri), self._empty)
        except Exception:
            return None

    def on_source_changed(self, uri: str):
        """Re-fetch one source's summary and patch it into the combination."""
        with self._lock:
            snap = self._snapshot
            combined = snap.summary
            if uri not in combined.sources:
                raise KeyError(f"source {uri!r} is not aggregated here")
            new = self._refetch(uri)
            if new is None:
                self._snapshot = _Snapshot(combined, snap.stale | {uri})
                return
            old = self._cache[uri]
            others = [s for u, s in self._cache.items() if u != uri]
            filters = {
                name: summary_patch(
                    combined.component(name),
                    old.component(name),
                    new.component(name),
                    [s.component(name) for s in others],
                )
                for name in COMPONENTS
            }
            self._cache[uri] = new
            self._snapshot = _Snapshot(
                Summary(**filters, sources=combined.sources, generation=combined.generation + 1),
                snap.stale - {uri},
            )

    def full_rescan(self):
        """Re-fetch every source and rebuild the combined summary."""
        with self._lock:
            snap = self._snapshot
            sources = snap.summary.sources
            stale = set(snap.stale)
            for uri in sources:
                new = self._refetch(uri)
                if new is None:
                    stale.add(uri)
                else:
                    self._cache[uri] = new
                    stale.discard(uri)
            self._snapshot = _Snapshot(
                self._recombine(sources, snap.summary.generation + 1), frozenset(stale)
            )

    def snapshot(self) -> tuple[Summary, SourceList]:
        """Consistent (combined summary, source list) pair of one generation."""
        summary = self._snapshot.summary
        return summary, summary.sources

    @property
    def generation(self) -> int:
        return self._snapshot.summary.generation

    @property
    def stale_sources(self) -> frozenset[str]:
        return self._snapshot.stale
