import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import podfed.client
from podfed import bundled_scenario_path, load_scenario
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
from podfed.quads import COMPONENTS, Quad, QuadPattern, Variable, iri, literal
from podfed.summary import (
    ANY_SOURCE,
    AmfParams,
    ExactFilter,
    create_file_summary,
    summary_contains,
)

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
        assert report.live_keys == ()

    def test_probe_split_and_live_keys(self):
        agg = build_aggregator()
        combined, sources = agg.snapshot()
        _, report = select_sources(pat("urn:p:tel"), ring(SECRET_KEY), combined, sources)
        # both keys probed globally, only the secret one hits; each source
        # is then probed with that key alone
        assert report.live_keys == (("predicate", 1),)
        assert (report.global_probes, report.source_probes) == (2, 2)
        assert report.probes_performed == 4

    def test_global_prune_stops_at_the_dead_component(self):
        agg = build_aggregator()
        combined, sources = agg.snapshot()
        pattern = QuadPattern(iri("urn:s:nowhere"), iri("urn:p:name"), Variable("o"), Variable("g"))
        _, report = select_sources(pattern, ring(SECRET_KEY), combined, sources)
        assert report.pruned_by_global
        assert report.live_keys == (("subject", 0),)
        assert (report.global_probes, report.source_probes) == (2, 0)

    def test_fewest_live_keys_component_is_probed_first(self):
        shared = iri("urn:p:shared")
        files = {
            SRC_PUB: (Quad(iri("urn:s:a"), shared, literal("open")), PUB_POLICY),
            SRC_SEC: (Quad(iri("urn:s:b"), shared, literal("closed")), SEC_POLICY),
        }
        summaries = {}
        for uri, (quad, policy) in files.items():
            key_map = create_access_keys(uri, [quad], [policy], KEYSTORE)
            summaries[uri] = create_file_summary([quad], uri, key_map, PARAMS, ExactFilter)
        agg = Aggregator(summaries.__getitem__, list(files), PARAMS, filter_cls=ExactFilter)
        combined, sources = agg.snapshot()
        pattern = pat("urn:p:shared", "open")
        selected, report = select_sources(pattern, ring(SECRET_KEY), combined, sources)
        assert report.live_keys == (("object", 1), ("predicate", 2))
        assert selected == (SRC_PUB,)
        # SRC_SEC is rejected by its one object probe; SRC_PUB needs one
        # object probe and at most two predicate probes
        assert 3 <= report.source_probes <= 4

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


# --- soundness of key-aware selection on the addressbook scenario -----------


def reference_select(pattern, keyring, combined, sources):
    """Exhaustive selection: the global slot, then every source, each probed
    with every key on the ring."""

    def holds(uri):
        return all(
            any(summary_contains(combined.component(name), term, key, uri) for key in keyring.keys)
            for name, term in pattern.ground_components()
        )

    if not holds(ANY_SOURCE):
        return ()
    return tuple(uri for uri in sources if holds(uri))


def oracle(fed, identity, pattern):
    """Every source queried directly through its pod's enforcement."""
    return {
        (quad, uri)
        for pod in fed.pods
        for uri in pod.file_uris
        for quad in pod.execute_query(identity, pattern, uri)
    }


def _addressbook(tmp_dir, exact=False, tiny=False):
    path = bundled_scenario_path()
    if tiny:
        # a 64-bit filter per component: frequent false positives
        text = path.read_text().replace("m: 131072\n  h: 11", "m: 64\n  h: 2")
        assert "m: 64" in text
        path = tmp_dir / "tiny.yaml"
        path.write_text(text)
    return load_scenario(path, seed=7, fixed_keys=True, exact=exact)


@pytest.fixture(scope="module")
def feds(tmp_path_factory):
    tmp_dir = tmp_path_factory.mktemp("scenarios")
    return {
        "exact": _addressbook(tmp_dir, exact=True),
        "bloom": _addressbook(tmp_dir),
        "tiny": _addressbook(tmp_dir, tiny=True),
    }


def _terms(fed):
    """Per component: the scenario's terms plus one that occurs nowhere."""
    terms = {name: {iri(f"urn:absent:{name}")} for name in COMPONENTS}
    for pod in fed.pods:
        for uri in pod.file_uris:
            for quad in pod.file_quads(uri):
                for name in COMPONENTS:
                    terms[name].add(quad.component(name))
    return {name: sorted(values, key=str) for name, values in terms.items()}


def _all_keys(fed):
    return sorted({key for name in fed.identities for key in fed.keyring(name).keys})


@st.composite
def patterns(draw, fed):
    terms = _terms(fed)
    return QuadPattern(*(
        draw(st.sampled_from(terms[name]) | st.just(Variable(name[0]))) for name in COMPONENTS
    ))


@st.composite
def keyrings(draw, fed, base=frozenset({PUBLIC_KEY})):
    keys = draw(st.sets(st.sampled_from(_all_keys(fed))))
    junk = draw(st.lists(st.binary(min_size=32, max_size=32), max_size=2))
    return KeyRing(owner="urn:test", keys=frozenset({*base, *keys, *junk}))


class TestKeyAwareSelection:
    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_exact_filters_select_like_the_exhaustive_reference(self, feds, data):
        fed = feds["exact"]
        pattern, keyring = data.draw(patterns(fed)), data.draw(keyrings(fed))
        combined, sources = fed.aggregator.snapshot()
        selected, _ = select_sources(pattern, keyring, combined, sources)
        assert selected == reference_select(pattern, keyring, combined, sources)

    @pytest.mark.parametrize("kind", ["bloom", "tiny"])
    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_bloom_selection_is_an_ordered_subset_with_equal_answers(self, feds, kind, data):
        fed = feds[kind]
        name = data.draw(st.sampled_from([None, *sorted(fed.identities)]))
        identity = fed.identity(name)
        pattern = data.draw(patterns(fed))
        keyring = data.draw(keyrings(fed, base=fed.keyring(name).keys))
        combined, sources = fed.aggregator.snapshot()
        selected, _ = select_sources(pattern, keyring, combined, sources)
        reference = reference_select(pattern, keyring, combined, sources)
        assert selected == tuple(uri for uri in reference if uri in selected)
        result, _ = federated_query(identity, keyring, pattern, fed.aggregator, fed.query_fn)
        assert result.bindings == oracle(fed, identity, pattern)

    @pytest.mark.parametrize("kind", ["bloom", "tiny"])
    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_keys_that_miss_globally_are_never_probed_per_source(self, feds, kind, data):
        fed = feds[kind]
        pattern, keyring = data.draw(patterns(fed)), data.draw(keyrings(fed))
        combined, sources = fed.aggregator.snapshot()
        hits, per_source = set(), []

        def counting(f, term, key, uri):
            found = summary_contains(f, term, key, uri)
            if uri != ANY_SOURCE:
                per_source.append((id(f), term, key))
            elif found:
                hits.add((id(f), term, key))
            return found

        with mock.patch.object(podfed.client, "summary_contains", counting):
            _, report = select_sources(pattern, keyring, combined, sources)
        assert all(probe in hits for probe in per_source)
        assert len(per_source) == report.source_probes
        assert report.global_probes <= len(keyring) * len(pattern.ground_components())
