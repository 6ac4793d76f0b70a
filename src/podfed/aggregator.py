"""Untrusted third-party aggregator.

Fetches per-file summaries from pods and folds them into one combined
summary per quad component, alongside the list of sources it covers. The
aggregator only ever handles source URIs and serialized summaries; raw
quads, policies and keys never cross its interface, which is what lets it
stay untrusted.

Bitmap union is not invertible, so a change to one source triggers a
recombination over all cached file summaries. Maintenance is notification
driven, plus an explicit full rescan.
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
    summary_combine,
)

SourceList = tuple[str, ...]

FetchSummary = Callable[[str], Summary]


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
    filters = {name: filter_cls(params) for name in COMPONENTS}
    for uri in ordered:
        file_summary = fetch(uri)
        for name in COMPONENTS:
            try:
                filters[name] = summary_combine(filters[name], file_summary.component(name))
            except ParamsMismatchError as exc:
                raise ParamsMismatchError(f"source {uri}: {exc}") from None
    return Summary(**filters, sources=ordered), ordered


@dataclass(frozen=True)
class _Snapshot:
    summary: Summary
    stale: frozenset[str]


class Aggregator:
    """Maintains the combined summary and source list for one federation.

    Readers always see a consistent (summary, sources, generation)
    snapshot; updates recombine and swap the snapshot atomically. If a
    source cannot be re-fetched the previous summary is kept and the
    source is flagged stale rather than dropped.
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

    def on_source_changed(self, uri: str):
        """Re-fetch one source's summary and recombine over all sources."""
        with self._lock:
            snap = self._snapshot
            if uri not in snap.summary.sources:
                raise KeyError(f"source {uri!r} is not aggregated here")
            try:
                self._cache[uri] = self._fetch(uri)
            except Exception:
                self._snapshot = _Snapshot(snap.summary, snap.stale | {uri})
                return
            self._snapshot = _Snapshot(
                self._recombine(snap.summary.sources, snap.summary.generation + 1),
                snap.stale - {uri},
            )

    def full_rescan(self):
        """Re-fetch every source and rebuild the combined summary."""
        with self._lock:
            snap = self._snapshot
            sources = snap.summary.sources
            stale = set(snap.stale)
            for uri in sources:
                try:
                    self._cache[uri] = self._fetch(uri)
                    stale.discard(uri)
                except Exception:
                    stale.add(uri)
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
