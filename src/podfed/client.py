"""Client-side query engine.

Source selection happens entirely on the client against the aggregator's
combined summary: for each ground pattern component the client probes the
matching filter with every key on its ring. A source is kept only if every
ground component matches under at least one key. Because the underlying
filters never produce false negatives, skipping a pruned source can never
lose results; false positives only cost a wasted pod query.

The any-source slot of the combined summary serves as a cheap global
pre-check: if a ground component matches nowhere in the whole federation,
no per-source probing is needed at all.
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
    probes_performed: int = 0


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

    A source survives only if each ground component is present in the
    combined summary under some key the client holds; the wildcard source
    is tested the same way first. All-variable patterns have nothing to
    probe with and select every source.
    """
    ground = pattern.ground_components()
    probes = 0

    def holds(uri: str) -> bool:
        nonlocal probes
        for name, term in ground:
            f = combined.component(name)
            for key in keyring.keys:
                probes += 1
                if summary_contains(f, term, key, uri):
                    break
            else:
                return False
        return True

    if not holds(ANY_SOURCE):
        report = SelectionReport(
            pattern, sources, (), pruned_by_global=True, probes_performed=probes
        )
        return report.selected, report
    selected = tuple(uri for uri in sources if holds(uri))
    report = SelectionReport(pattern, sources, selected, probes_performed=probes)
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
