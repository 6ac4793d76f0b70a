import random

import pytest

from podfed.aggregator import Aggregator
from podfed.client import federated_query, query_sources, select_sources
from podfed.policy import (
    PERMIT,
    PUBLIC_KEY,
    AccessPolicy,
    KeyRing,
    KeyStore,
    SubjectGroup,
    create_access_keys,
)
from podfed.quads import Quad, QuadPattern, Variable, iri, literal
from podfed.summary import AmfParams, ExactFilter, create_file_summary

PARAMS = AmfParams(m=4096, h=5)

SRC_PUB = "urn:src:public"
SRC_SEC = "urn:src:secret"

PUB_Q = Quad(iri("urn:s:pub"), iri("urn:p:name"), literal("open"))
SEC_Q = Quad(iri("urn:s:sec"), iri("urn:p:tel"), literal("restricted"))

KEYSTORE = KeyStore(fixed_seed=9)


def _policy(pid, tier, file_uri, members=()):
    return AccessPolicy(
        id=pid,
        subject_group=SubjectGroup("urn:pod", tier, frozenset(members)),
        effect=PERMIT,
        file_uri=file_uri,
    )


PUB_POLICY = _policy("pub", "everyone", SRC_PUB)
SEC_POLICY = _policy("sec", "friends", SRC_SEC, members=("urn:alice",))
SECRET_KEY = KEYSTORE.generate_key(SEC_POLICY)


def build_aggregator(filter_cls=ExactFilter):
    summaries = {}
    for uri, quads, policy in ((SRC_PUB, [PUB_Q], PUB_POLICY), (SRC_SEC, [SEC_Q], SEC_POLICY)):
        key_map = create_access_keys(uri, quads, [policy], KEYSTORE)
        summaries[uri] = create_file_summary(quads, uri, key_map, PARAMS, filter_cls)
    return Aggregator(summaries.__getitem__, [SRC_PUB, SRC_SEC], PARAMS, filter_cls=filter_cls)


def ring(*keys):
    return KeyRing(owner="urn:test", keys=frozenset({PUBLIC_KEY, *keys}))


def pat(predicate=None, obj=None):
    return QuadPattern(
        Variable("s"),
        iri(predicate) if predicate else Variable("p"),
        literal(obj) if obj else Variable("o"),
        Variable("g"),
    )


ALL_VAR = pat()


class TestSelectSources:
    def test_public_term_selects_only_its_source(self):
        agg = build_aggregator()
        combined, sources = agg.snapshot()
        selected, report = select_sources(pat("urn:p:name"), ring(), combined, sources)
        assert selected == (SRC_PUB,)
        assert not report.pruned_by_global
        assert report.probes_performed > 0

    def test_restricted_term_needs_the_key(self):
        agg = build_aggregator()
        combined, sources = agg.snapshot()
        without, _ = select_sources(pat("urn:p:tel"), ring(), combined, sources)
        with_key, _ = select_sources(pat("urn:p:tel"), ring(SECRET_KEY), combined, sources)
        assert without == ()
        assert with_key == (SRC_SEC,)

    def test_unknown_term_prunes_globally(self):
        agg = build_aggregator()
        combined, sources = agg.snapshot()
        selected, report = select_sources(pat("urn:p:nowhere"), ring(SECRET_KEY), combined, sources)
        assert selected == ()
        assert report.pruned_by_global

    def test_all_variable_pattern_selects_everything(self):
        agg = build_aggregator()
        combined, sources = agg.snapshot()
        selected, report = select_sources(ALL_VAR, ring(), combined, sources)
        assert selected == sources
        assert report.probes_performed == 0

    def test_every_ground_component_must_survive(self):
        agg = build_aggregator()
        combined, sources = agg.snapshot()
        # predicate exists in SRC_PUB, object only in SRC_SEC: no source has both
        mixed = pat("urn:p:name", "restricted")
        selected, report = select_sources(mixed, ring(SECRET_KEY), combined, sources)
        assert selected == ()
        assert not report.pruned_by_global

    def test_selected_is_subset_of_candidates_in_order(self):
        agg = build_aggregator()
        combined, sources = agg.snapshot()
        for keyring in (ring(), ring(SECRET_KEY)):
            for pattern in (ALL_VAR, pat("urn:p:name"), pat("urn:p:tel")):
                selected, report = select_sources(pattern, keyring, combined, sources)
                assert set(selected) <= set(sources)
                assert list(selected) == [u for u in sources if u in set(selected)]
                assert report.candidates == sources

    def test_monotone_in_keys(self):
        agg = build_aggregator()
        combined, sources = agg.snapshot()
        rng = random.Random(4)
        extras = [rng.randbytes(8) for _ in range(4)] + [SECRET_KEY]
        for _ in range(50):
            small = rng.sample(extras, rng.randrange(0, len(extras)))
            large = small + rng.sample(extras, rng.randrange(0, len(extras)))
            for pattern in (pat("urn:p:tel"), pat("urn:p:name"), ALL_VAR):
                few, _ = select_sources(pattern, ring(*small), combined, sources)
                more, _ = select_sources(pattern, ring(*large), combined, sources)
                assert set(few) <= set(more)


class TestQuerySources:
    def fn(self, identity, pattern, uri):
        return {SRC_PUB: {PUB_Q}, SRC_SEC: {SEC_Q}}[uri]

    def test_union_with_provenance(self):
        result = query_sources(None, ALL_VAR, [SRC_PUB, SRC_SEC], self.fn)
        assert result.bindings == {(PUB_Q, SRC_PUB), (SEC_Q, SRC_SEC)}
        assert result.quads() == {PUB_Q, SEC_Q}
        assert not result.failures

    def test_same_quad_from_two_sources_keeps_both_pairs(self):
        result = query_sources(None, ALL_VAR, [SRC_PUB, SRC_SEC], lambda i, p, u: {PUB_Q})
        assert len(result) == 2
        assert result.quads() == {PUB_Q}

    def test_empty_uri_list(self):
        assert len(query_sources(None, ALL_VAR, [], self.fn)) == 0

    def test_failures_are_recorded_not_fatal(self):
        def flaky(identity, pattern, uri):
            if uri == SRC_SEC:
                raise ConnectionError("unreachable")
            return {PUB_Q}

        result = query_sources(None, ALL_VAR, [SRC_PUB, SRC_SEC], flaky)
        assert result.quads() == {PUB_Q}
        assert list(result.failures) == [SRC_SEC]
        assert "unreachable" in result.failures[SRC_SEC]

    def test_parallel_equals_serial(self):
        uris = [SRC_PUB, SRC_SEC, "urn:src:down"]
        serial = query_sources(None, ALL_VAR, uris, self.fn, parallel=False)
        parallel = query_sources(None, ALL_VAR, uris, self.fn, parallel=True)
        assert serial.bindings == parallel.bindings == {(PUB_Q, SRC_PUB), (SEC_Q, SRC_SEC)}
        assert serial.failures == parallel.failures
        assert list(parallel.failures) == ["urn:src:down"]


class TestFederatedQuery:
    def test_composes_selection_and_querying(self):
        agg = build_aggregator()
        calls = []

        def fn(identity, pattern, uri):
            calls.append(uri)
            return {SRC_PUB: {PUB_Q}, SRC_SEC: {SEC_Q}}[uri]

        result, report = federated_query(None, ring(), pat("urn:p:name"), agg, fn)
        assert calls == [SRC_PUB]
        assert report.selected == (SRC_PUB,)
        assert result.bindings == {(PUB_Q, SRC_PUB)}

    def test_globally_pruned_pattern_issues_no_queries(self):
        agg = build_aggregator()

        def fn(identity, pattern, uri):  # pragma: no cover - must not run
            raise AssertionError("no pod query should be issued")

        result, report = federated_query(None, ring(), pat("urn:p:tel"), agg, fn)
        assert report.pruned_by_global
        assert len(result) == 0
