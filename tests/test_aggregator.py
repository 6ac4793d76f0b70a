import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podfed.aggregator import Aggregator, create_aggregated_summary
from podfed.experiments import aggregator_interface_is_opaque
from podfed.policy import AccessPolicy, KeyStore, SubjectGroup, create_access_keys
from podfed.quads import COMPONENTS, Quad, iri, literal
from podfed.summary import (
    ANY_SOURCE,
    AmfParams,
    BloomFilter,
    ExactFilter,
    FormatError,
    ParamsMismatchError,
    Summary,
    create_file_summary,
    summary_add,
    summary_contains,
    summary_patch,
    summary_union,
)

PARAMS = AmfParams(m=4096, h=5)
SRC_A = "urn:src:a"
SRC_B = "urn:src:b"


def file_summary(source_uri, *quads, params=PARAMS):
    policy = AccessPolicy(
        id=f"open-{source_uri}",
        subject_group=SubjectGroup("urn:pod", "everyone"),
        effect="permit",
        file_uri=source_uri,
    )
    key_map = create_access_keys(source_uri, quads, [policy], KeyStore())
    return create_file_summary(list(quads), source_uri, key_map, params)


QUAD_A = Quad(iri("urn:s:a"), iri("urn:p:a"), literal("a"))
QUAD_B = Quad(iri("urn:s:b"), iri("urn:p:b"), literal("b"))


@pytest.fixture
def store():
    return {
        SRC_A: file_summary(SRC_A, QUAD_A),
        SRC_B: file_summary(SRC_B, QUAD_B),
    }


class TestCreateAggregatedSummary:
    def test_combination_equals_direct_build(self, store):
        combined, sources = create_aggregated_summary(
            [SRC_A, SRC_B], store.__getitem__, PARAMS
        )
        assert sources == (SRC_A, SRC_B)
        for name in COMPONENTS:
            direct = BloomFilter(PARAMS)
            for src, quad in ((SRC_A, QUAD_A), (SRC_B, QUAD_B)):
                summary_add(direct, quad.component(name), b"", src)
            assert combined.component(name) == direct

    def test_sources_deduplicated_keeping_first_order(self, store):
        _, sources = create_aggregated_summary(
            [SRC_B, SRC_A, SRC_B], store.__getitem__, PARAMS
        )
        assert sources == (SRC_B, SRC_A)

    def test_params_mismatch_names_the_source(self, store):
        store[SRC_B] = file_summary(SRC_B, QUAD_B, params=AmfParams(m=8192, h=5))
        with pytest.raises(ParamsMismatchError, match=SRC_B):
            create_aggregated_summary([SRC_A, SRC_B], store.__getitem__, PARAMS)

    def test_empty_source_list(self):
        combined, sources = create_aggregated_summary([], dict().__getitem__, PARAMS)
        assert sources == ()
        assert all(combined.component(n).popcount == 0 for n in COMPONENTS)


class TestAggregator:
    def test_initial_state(self, store):
        agg = Aggregator(store.__getitem__, [SRC_A, SRC_B], PARAMS)
        combined, sources = agg.snapshot()
        assert sources == (SRC_A, SRC_B)
        assert agg.generation == 0
        assert not agg.stale_sources
        assert summary_contains(combined.component("subject"), iri("urn:s:a"), b"", ANY_SOURCE)

    def test_change_notification_refetches(self, store):
        agg = Aggregator(store.__getitem__, [SRC_A, SRC_B], PARAMS)
        new_quad = Quad(iri("urn:s:new"), iri("urn:p:new"), literal("new"))
        store[SRC_A] = file_summary(SRC_A, new_quad)
        agg.on_source_changed(SRC_A)
        combined, _ = agg.snapshot()
        assert agg.generation == combined.generation == 1
        assert summary_contains(combined.component("subject"), iri("urn:s:new"), b"", SRC_A)

    def test_generation_bumps_even_for_noop_change(self, store):
        agg = Aggregator(store.__getitem__, [SRC_A, SRC_B], PARAMS)
        before, _ = agg.snapshot()
        agg.on_source_changed(SRC_A)
        assert agg.generation == 1
        assert agg.snapshot()[0].component("subject") == before.component("subject")

    def test_unknown_source_rejected(self, store):
        agg = Aggregator(store.__getitem__, [SRC_A], PARAMS)
        with pytest.raises(KeyError):
            agg.on_source_changed("urn:src:unknown")

    def test_fetch_failure_keeps_stale_snapshot(self, store):
        agg = Aggregator(store.__getitem__, [SRC_A, SRC_B], PARAMS)
        before = agg.snapshot()
        del store[SRC_A]
        agg.on_source_changed(SRC_A)
        assert agg.stale_sources == {SRC_A}
        assert agg.generation == 0
        assert agg.snapshot()[0].component("subject") == before[0].component("subject")
        # the source recovers on the next successful notification
        store[SRC_A] = file_summary(SRC_A, QUAD_A)
        agg.on_source_changed(SRC_A)
        assert not agg.stale_sources
        assert agg.generation == 1

    def test_incompatible_refetch_keeps_stale_snapshot(self, store):
        agg = Aggregator(store.__getitem__, [SRC_A, SRC_B], PARAMS)
        before = agg.snapshot()[0]
        old_a = store[SRC_A]
        for bad in (file_summary(SRC_A, QUAD_B, params=AmfParams(m=8192, h=5)),
                    Summary(*[ExactFilter(PARAMS)] * 4, sources=(SRC_A,))):
            store[SRC_A] = bad
            agg.on_source_changed(SRC_A)
            assert agg.stale_sources == {SRC_A}
            assert agg.generation == 0
            assert agg.snapshot()[0] is before
        # other sources keep updating, against the last good summary of SRC_A
        store[SRC_B] = file_summary(SRC_B, QUAD_A)
        agg.on_source_changed(SRC_B)
        assert agg.stale_sources == {SRC_A}
        assert agg.generation == 1
        fresh, _ = create_aggregated_summary(
            [SRC_A, SRC_B], {SRC_A: old_a, SRC_B: store[SRC_B]}.__getitem__, PARAMS
        )
        assert agg.snapshot()[0].filters() == fresh.filters()
        agg.full_rescan()
        assert agg.stale_sources == {SRC_A}
        assert agg.snapshot()[0].filters() == fresh.filters()

    def test_full_rescan(self, store):
        agg = Aggregator(store.__getitem__, [SRC_A, SRC_B], PARAMS)
        new_quad = Quad(iri("urn:s:scan"), iri("urn:p"), literal("x"))
        store[SRC_B] = file_summary(SRC_B, new_quad)
        agg.full_rescan()
        assert agg.generation == 1
        assert summary_contains(
            agg.snapshot()[0].component("subject"), iri("urn:s:scan"), b"", SRC_B
        )


SMALL = AmfParams(m=64, h=1)


def raw_summary(uri, filter_cls, positions):
    """A summary whose four filters hold exactly ``positions``: bit numbers
    for a BloomFilter, one-byte digests for an ExactFilter."""
    filters = []
    for _ in COMPONENTS:
        f = filter_cls(SMALL)
        for j in positions:
            if filter_cls is BloomFilter:
                f.bits[j >> 3] |= 1 << (j & 7)
            else:
                f.digests.add(bytes([j]))
        filters.append(f)
    return Summary(*filters, sources=(uri,))


SOURCES = [f"urn:src:{i}" for i in range(4)]
contents = st.frozensets(st.integers(0, SMALL.m - 1), max_size=10)
# an update writes new contents, empties the file, or returns the very
# summary object the aggregator already holds
updates = st.tuples(
    st.integers(0, len(SOURCES) - 1),
    st.one_of(contents, st.just(frozenset()), st.just("same")),
)


class TestDeltaPatch:
    @settings(deadline=None, max_examples=150)
    @given(
        st.sampled_from([BloomFilter, ExactFilter]),
        st.lists(contents, min_size=len(SOURCES), max_size=len(SOURCES)),
        st.lists(updates, max_size=12),
    )
    def test_every_generation_equals_a_full_recombination(self, filter_cls, initial, steps):
        store = {uri: raw_summary(uri, filter_cls, c) for uri, c in zip(SOURCES, initial)}
        agg = Aggregator(store.__getitem__, SOURCES, SMALL, filter_cls)
        fetched = {uri: [(s, [f.copy() for f in s.filters()])] for uri, s in store.items()}
        for generation, (i, change) in enumerate(steps, start=1):
            uri = SOURCES[i]
            if change != "same":
                store[uri] = raw_summary(uri, filter_cls, change)
                fetched[uri].append((store[uri], [f.copy() for f in store[uri].filters()]))
            before = agg.snapshot()[0]
            agg.on_source_changed(uri)
            combined = agg.snapshot()[0]
            fresh, _ = create_aggregated_summary(SOURCES, store.__getitem__, SMALL, filter_cls)
            assert combined.generation == generation
            assert combined.sources == fresh.sources
            assert combined.filters() == fresh.filters()
            assert all(new is not old for new, old in zip(combined.filters(), before.filters()))
        for versions in fetched.values():
            for summary, copies in versions:
                assert summary.filters() == copies

    @pytest.mark.parametrize("filter_cls", [BloomFilter, ExactFilter])
    def test_single_nonzero_byte_in_the_delta(self, filter_cls):
        # old sets bits 3 and 4 (both in byte 0), new keeps only 4: one byte
        # of D is nonzero, so the gather sees a single index
        old = raw_summary(SOURCES[0], filter_cls, {3, 4}).subject
        new = raw_summary(SOURCES[0], filter_cls, {4}).subject
        others = [raw_summary(SOURCES[1], filter_cls, {3, 40}).subject,
                  raw_summary(SOURCES[2], filter_cls, {9}).subject]
        for kept in ([], others):
            combined = summary_union(old, *kept)
            assert summary_patch(combined, old, new, kept) == summary_union(new, *kept)

    def test_incompatible_new_filter_is_rejected(self):
        combined = BloomFilter(SMALL)
        with pytest.raises(ParamsMismatchError):
            summary_patch(combined, combined, BloomFilter(AmfParams(m=128, h=1)), [])


class TestSerialization:
    def test_round_trip(self, store):
        agg = Aggregator(store.__getitem__, [SRC_A, SRC_B], PARAMS)
        combined, sources = agg.snapshot()
        data = combined.to_bytes()
        parsed = Summary.from_bytes(data)
        assert parsed.sources == sources
        for name in COMPONENTS:
            assert parsed.component(name) == combined.component(name)
        assert parsed.to_bytes() == data

    def test_header_layout(self, store):
        combined, _ = create_aggregated_summary([SRC_A], store.__getitem__, PARAMS)
        data = combined.to_bytes()
        assert data[:4] == b"PPAS"
        assert data[4] == 1
        assert data[5:9] == (1).to_bytes(4, "little")
        uri = SRC_A.encode()
        assert data[9:13] == len(uri).to_bytes(4, "little")
        assert data[13 : 13 + len(uri)] == uri

    def test_bad_magic_rejected(self):
        with pytest.raises(FormatError, match="magic"):
            Summary.from_bytes(b"NOPE" + bytes(32))


class TestOpacity:
    def test_interface_never_mentions_quads_policies_or_keys(self):
        opaque, problems = aggregator_interface_is_opaque()
        assert opaque, problems
