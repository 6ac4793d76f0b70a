import pytest

from podfed.aggregator import Aggregator, create_aggregated_summary
from podfed.experiments import aggregator_interface_is_opaque
from podfed.policy import AccessPolicy, KeyStore, SubjectGroup, create_access_keys
from podfed.quads import COMPONENTS, Quad, iri, literal
from podfed.summary import (
    ANY_SOURCE,
    AmfParams,
    BloomFilter,
    FormatError,
    ParamsMismatchError,
    Summary,
    create_file_summary,
    summary_add,
    summary_contains,
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
    key_map = create_access_keys({source_uri: list(quads)}, [policy], KeyStore())
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

    def test_full_rescan(self, store):
        agg = Aggregator(store.__getitem__, [SRC_A, SRC_B], PARAMS)
        new_quad = Quad(iri("urn:s:scan"), iri("urn:p"), literal("x"))
        store[SRC_B] = file_summary(SRC_B, new_quad)
        agg.full_rescan()
        assert agg.generation == 1
        assert summary_contains(
            agg.snapshot()[0].component("subject"), iri("urn:s:scan"), b"", SRC_B
        )


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
