"""Client-side query engine.

Source selection happens entirely on the client against the aggregator's
combined summary. A source is kept only if every ground pattern component
is present in its slot of the matching filter under at least one key on
the client's ring. Because the underlying filters never produce false
negatives, skipping a pruned source can never lose results; false
positives only cost a wasted pod query.

Every element is also inserted under the same key for the any-source slot,
so selection runs in two stages. The global stage probes the any-source
slot with every key on the ring, once per ground component, and keeps the
keys that hit ("live" keys). A component with no live key matches nowhere
in the federation, and the whole pattern is pruned without per-source
probing. The per-source stage then probes each source only with live keys,
components with the fewest live keys first: a key that missed the global
stage could hit a source only through a false positive.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .aggregator import Aggregator, SourceList
from .policy import Identity, KeyRing
from .quads import Quad, QuadPattern
from .summary import ANY_SOURCE, Summary, summary_contains

logger = logging.getLogger(__name__)

# query_fn(identity, pattern, file_uri) -> matching quads the caller may see
QueryFn = Callable[[Identity | None, QuadPattern, str], set[Quad]]


@dataclass(frozen=True)
class SelectionReport:
    """What the selection step looked at and what survived."""

    pattern: QuadPattern
    candidates: SourceList
    selected: tuple[str, ...]
    pruned_by_global: bool = False
    global_probes: int = 0
    source_probes: int = 0
    # (component, number of live keys), fewest first: the per-source probe
    # order. Counts only, never key bytes.
    live_keys: tuple[tuple[str, int], ...] = ()

    @property
    def probes_performed(self) -> int:
        return self.global_probes + self.source_probes


@dataclass(frozen=True)
class QueryResult:
    """Union of per-source results, each quad tagged with its origin."""

    bindings: frozenset[tuple[Quad, str]]
    failures: dict[str, str] = field(default_factory=dict)

    def quads(self) -> set[Quad]:
        return {quad for quad, _ in self.bindings}

    def sources(self) -> set[str]:
        return {uri for _, uri in self.bindings}

    def __len__(self) -> int:
        return len(self.bindings)


def select_sources(
    pattern: QuadPattern,
    keyring: KeyRing,
    combined: Summary,
    sources: SourceList,
) -> tuple[tuple[str, ...], SelectionReport]:
    """Pick the sources that may hold matches for ``pattern``.

    The global stage probes the any-source slot with every key on the
    ring, in sorted key order, and keeps each ground component's live
    keys; the first component without one prunes globally. The per-source
    stage probes each source with the live keys only, fewest-keys
    component first, and rejects the source at the first component with
    no hit. All-variable patterns have nothing to probe with and select
    every source.
    """
    ring = sorted(keyring.keys)
    global_probes = source_probes = 0
    live = []
    for name, term in pattern.ground_components():
        f = combined.component(name)
        keys = []
        for key in ring:
            global_probes += 1
            if summary_contains(f, term, key, ANY_SOURCE):
                keys.append(key)
        live.append((name, f, term, keys))
        if not keys:
            break
    pruned = any(not keys for *_, keys in live)
    live.sort(key=lambda component: len(component[3]))

    def holds(uri: str) -> bool:
        nonlocal source_probes
        for _, f, term, keys in live:
            for key in keys:
                source_probes += 1
                if summary_contains(f, term, key, uri):
                    break
            else:
                return False
        return True

    selected = () if pruned else tuple(uri for uri in sources if holds(uri))
    report = SelectionReport(
        pattern,
        sources,
        selected,
        pruned_by_global=pruned,
        global_probes=global_probes,
        source_probes=source_probes,
        live_keys=tuple((name, len(keys)) for name, _, _, keys in live),
    )
    return report.selected, report


def query_sources(
    identity: Identity | None,
    pattern: QuadPattern,
    uris: Sequence[str],
    query_fn: QueryFn,
    parallel: bool = False,
) -> QueryResult:
    """Run ``pattern`` against each source and union the results.

    A failing source is recorded under its URI and does not abort the
    rest of the query.
    """
    bindings: set[tuple[Quad, str]] = set()
    failures: dict[str, str] = {}

    def run_one(uri: str):
        try:
            return query_fn(identity, pattern, uri), None
        except Exception as exc:
            return None, exc

    pooled = parallel and len(uris) > 1
    with ThreadPoolExecutor(max_workers=min(8, len(uris))) if pooled else nullcontext() as pool:
        outcomes = pool.map(run_one, uris) if pooled else map(run_one, uris)
        for uri, (quads, exc) in zip(uris, outcomes):
            if exc is None:
                bindings.update((q, uri) for q in quads)
            else:
                logger.warning("query against %s failed: %s", uri, exc)
                failures[uri] = str(exc)
    return QueryResult(frozenset(bindings), failures)


def federated_query(
    identity: Identity | None,
    keyring: KeyRing,
    pattern: QuadPattern,
    aggregator: Aggregator,
    query_fn: QueryFn,
    parallel: bool = False,
) -> tuple[QueryResult, SelectionReport]:
    """Select sources from one aggregator snapshot, then query them."""
    combined, sources = aggregator.snapshot()
    selected, report = select_sources(pattern, keyring, combined, sources)
    result = query_sources(identity, pattern, selected, query_fn, parallel)
    return result, report
