import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from podfed.policy import PolicyKeyMap
from podfed.quads import COMPONENTS, Quad, canonical_bytes, iri, literal
from podfed.summary import (
    ANY_SOURCE,
    AmfParams,
    BloomFilter,
    ExactFilter,
    FormatError,
    ParamsMismatchError,
    Summary,
    create_file_summary,
    encode_element,
    false_positive_rate,
    summary_add,
    summary_combine,
    summary_contains,
    summary_union,
)

PARAMS = AmfParams(m=4096, h=5)
SRC = "urn:test:file"


def random_terms(rng, n, tag="t"):
    return [iri(f"urn:{tag}:{i}:{rng.getrandbits(32):08x}") for i in range(n)]


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            AmfParams(m=4, h=5)
        with pytest.raises(ValueError):
            AmfParams(m=4096, h=0)
        with pytest.raises(ValueError):
            AmfParams(m=4096, h=5, hash_alg=2)

    def test_probe_count_is_capped(self):
        assert AmfParams(m=4096, h=64).h == 64
        with pytest.raises(ValueError, match="1 to 64"):
            AmfParams(m=4096, h=65)


class TestMembership:
    def test_no_false_negatives(self):
        rng = random.Random(101)
        f = BloomFilter(PARAMS)
        entries = [
            (term, rng.randbytes(8), f"urn:src:{rng.getrandbits(16)}")
            for term in random_terms(rng, 200)
        ]
        for term, key, src in entries:
            summary_add(f, term, key, src)
        for term, key, src in entries:
            assert summary_contains(f, term, key, src)
            assert summary_contains(f, term, key, ANY_SOURCE)

    def test_wrong_key_or_source_not_found(self):
        # large filter, so a false positive here would be astronomically rare
        f = BloomFilter(AmfParams(m=2**17, h=11))
        summary_add(f, iri("urn:secret"), b"right-key", SRC)
        assert not summary_contains(f, iri("urn:secret"), b"wrong-key", SRC)
        assert not summary_contains(f, iri("urn:secret"), b"right-key", "urn:test:other")
        assert not summary_contains(f, iri("urn:other"), b"right-key", SRC)

    def test_adding_under_wildcard_source_is_rejected(self):
        f = BloomFilter(PARAMS)
        with pytest.raises(ValueError):
            summary_add(f, iri("urn:x"), b"k", ANY_SOURCE)

    def test_each_add_counts_two_effective_inserts(self):
        f, exact, direct = BloomFilter(PARAMS), ExactFilter(PARAMS), BloomFilter(PARAMS)
        for i in range(7):
            term = iri(f"urn:x:{i}")
            summary_add(f, term, b"k", SRC)
            summary_add(exact, term, b"k", SRC)
            for source in (SRC, ANY_SOURCE):
                direct.insert_digest(encode_element(canonical_bytes(term), b"k", source))
        assert f == direct
        assert exact.popcount == 14
        # the fill estimate is positive and survives the binary form
        assert f.estimated_fpr > 0
        parsed = Summary.from_bytes(Summary(f, f, f, f, sources=(SRC,)).to_bytes())
        assert [g.estimated_fpr for g in parsed.filters()] == [f.estimated_fpr] * 4

    def test_exact_filter_has_no_false_positives(self):
        f = ExactFilter(PARAMS)
        for i in range(50):
            summary_add(f, iri(f"urn:in:{i}"), b"k", SRC)
        assert all(summary_contains(f, iri(f"urn:in:{i}"), b"k", SRC) for i in range(50))
        assert not any(
            summary_contains(f, iri(f"urn:out:{i}"), b"k", SRC) for i in range(1000)
        )


class TestCombine:
    def build(self, elements, filter_cls=BloomFilter):
        f = filter_cls(PARAMS)
        for term, key, src in elements:
            summary_add(f, term, key, src)
        return f

    def elements(self, rng, n):
        return [(t, rng.randbytes(4), SRC) for t in random_terms(rng, n)]

    def test_union_equals_build_from_union(self):
        rng = random.Random(77)
        a_elems, b_elems = self.elements(rng, 40), self.elements(rng, 25)
        a, b = self.build(a_elems), self.build(b_elems)
        combined = summary_combine(a, b)
        assert combined == self.build(a_elems + b_elems)
        assert combined.estimated_fpr > max(a.estimated_fpr, b.estimated_fpr) > 0

    def test_algebraic_laws(self):
        rng = random.Random(78)
        for _ in range(30):
            a = self.build(self.elements(rng, rng.randrange(0, 30)))
            b = self.build(self.elements(rng, rng.randrange(0, 30)))
            c = self.build(self.elements(rng, rng.randrange(0, 30)))
            assert summary_combine(a, b) == summary_combine(b, a)
            assert summary_combine(summary_combine(a, b), c) == summary_combine(
                a, summary_combine(b, c)
            )
            assert summary_combine(a, a) == a

    def test_exact_filters_combine_too(self):
        rng = random.Random(79)
        a_elems, b_elems = self.elements(rng, 10), self.elements(rng, 10)
        a = self.build(a_elems, ExactFilter)
        b = self.build(b_elems, ExactFilter)
        assert summary_combine(a, b) == self.build(a_elems + b_elems, ExactFilter)

    def test_union_of_many_equals_pairwise_fold(self):
        rng = random.Random(80)
        for filter_cls in (BloomFilter, ExactFilter):
            parts = [self.build(self.elements(rng, rng.randrange(0, 20)), filter_cls)
                     for _ in range(6)]
            folded = filter_cls(PARAMS)
            for f in parts:
                folded = summary_combine(folded, f)
            assert summary_union(filter_cls(PARAMS), *parts) == folded
            assert summary_union(parts[0]) == parts[0]
            assert summary_union(parts[0]) is not parts[0]
        with pytest.raises(ParamsMismatchError):
            summary_union(BloomFilter(PARAMS), BloomFilter(PARAMS), ExactFilter(PARAMS))

    def test_mismatched_params_rejected(self):
        with pytest.raises(ParamsMismatchError):
            summary_combine(
                BloomFilter(PARAMS), BloomFilter(AmfParams(m=8192, h=5))
            )

    def test_mismatched_types_rejected(self):
        with pytest.raises(ParamsMismatchError):
            summary_combine(
                BloomFilter(PARAMS), ExactFilter(PARAMS)
            )


class TestSerialization:
    def test_filter_header_layout(self):
        f = BloomFilter(AmfParams(m=64, h=3))
        f.insert_digest(bytes(range(32)))
        data = f.to_bytes()
        assert data[:4] == b"PPFS"
        assert data[4] == 1  # format version
        assert data[5] == 1  # hash algorithm tag
        assert data[6:8] == (3).to_bytes(2, "little")
        assert data[8:16] == (64).to_bytes(8, "little")
        assert len(data) == 16 + 64 // 8

    def test_bit_placement_is_lsb_first(self):
        f = BloomFilter(AmfParams(m=16, h=1))
        # h1 = 13, h2 irrelevant at h=1: bit 13 lives in byte 1, position 5
        f.insert_digest((13).to_bytes(8, "little") + bytes(24))
        assert bytes(f.bits) == bytes([0x00, 0x20])

    def test_filter_round_trip_with_offset(self):
        f = BloomFilter(PARAMS)
        summary_add(f, iri("urn:x"), b"k", SRC)
        summary = Summary(f, BloomFilter(PARAMS), f, BloomFilter(PARAMS), sources=(SRC,))
        data = summary.to_bytes()
        offset, size = 13 + len(SRC), len(f.to_bytes())
        for i, g in enumerate(summary.filters()):
            assert data[offset + i * size : offset + (i + 1) * size] == g.to_bytes()
        assert Summary.from_bytes(data).filters() == summary.filters()

    def test_exact_filters_have_no_binary_form(self):
        f = ExactFilter(PARAMS)
        with pytest.raises(TypeError, match="no binary form"):
            f.to_bytes()
        with pytest.raises(TypeError, match="no binary form"):
            Summary(f, f, f, f, sources=(SRC,)).to_bytes()

    def test_filter_rejects_bad_magic_and_truncation(self):
        data = Summary(*[BloomFilter(PARAMS)] * 4, sources=(SRC,)).to_bytes()
        offset = 13 + len(SRC)  # first filter record
        with pytest.raises(FormatError, match="magic"):
            Summary.from_bytes(data[:offset] + b"XXXX" + data[offset + 4 :])
        with pytest.raises(FormatError, match="truncated"):
            Summary.from_bytes(data[:-1])

    def test_file_summary_round_trip(self):
        quads = [Quad(iri("urn:s"), iri("urn:p"), literal("o"))]
        key_map = _single_key_map(quads[0], b"k1")
        summary = create_file_summary(quads, SRC, key_map, PARAMS)
        data = summary.to_bytes()
        parsed = Summary.from_bytes(data)
        assert parsed.sources == (SRC,)
        assert parsed.filters() == summary.filters()
        uri = SRC.encode()
        header = b"PPAS\x01" + (1).to_bytes(4, "little") + len(uri).to_bytes(4, "little") + uri
        assert data == header + b"".join(f.to_bytes() for f in summary.filters())


def _dump(m=64, ms=None):
    filters = [BloomFilter(AmfParams(m=x, h=3)) for x in (ms or [m] * 4)]
    return Summary(*filters, sources=(SRC,)).to_bytes()


def _count_header(count):
    return b"PPAS\x01" + count.to_bytes(4, "little")


def _patched(pos, value):
    data = bytearray(_dump())
    data[pos] = value
    return bytes(data)


def _with_probes(h, full=False):
    """A dump whose first filter record claims ``h`` probes (bitmap all ones
    with ``full``, so every probe of it would run all h rounds)."""
    data = bytearray(_dump())
    data[RECORD_AT + 6 : RECORD_AT + 8] = h.to_bytes(2, "little")
    if full:
        data[RECORD_AT + 16 : RECORD_AT + 24] = b"\xff" * 8
    return bytes(data)


URI_AT = 13  # first byte of the first source URI
RECORD_AT = URI_AT + len(SRC)  # first byte of the subject filter record


class TestHostileInput:
    @pytest.mark.parametrize(
        "data, message",
        [
            (_dump() + b"\x00", "trailing"),
            (_patched(URI_AT, 0xFF), "UTF-8"),
            (_count_header(2) + _dump()[9:], "truncated"),
            (_dump()[:4], "truncated"),
            (_dump()[:5], "truncated"),
            (BloomFilter(PARAMS).to_bytes(), "summary magic"),
            (_dump(ms=[64, 128, 64, 64]), "different parameters"),
            (_count_header(2**20), "source count"),
            (_count_header(2**32 - 1), "source count"),
            (_dump(m=12)[:-1] + b"\xf0", "beyond m"),
            (_patched(RECORD_AT + 5, 2), "filter parameters"),
            (_patched(RECORD_AT + 6, 0), "filter parameters"),
            (_patched(RECORD_AT + 8, 4), "filter parameters"),
            (_with_probes(65), "filter parameters"),
            (_with_probes(65535, full=True), "filter parameters"),
        ],
        ids=[
            "trailing-junk", "bad-utf8-uri", "wrong-source-count", "cut-after-4",
            "cut-after-5", "filter-dump-alone", "mixed-m", "claims-2^20-sources",
            "claims-2^32-1-sources", "padding-bits", "hash-alg-2", "h-0", "m-4",
            "h-65", "h-65535-full-bitmap",
        ],
    )
    def test_each_defect_raises_format_error(self, data, message):
        with pytest.raises(FormatError, match=message):
            Summary.from_bytes(data)

    def test_format_error_is_a_value_error(self):
        assert issubclass(FormatError, ValueError)

    def test_largest_probe_count_round_trips(self):
        f = BloomFilter(AmfParams(m=64, h=64))
        assert Summary.from_bytes(Summary(f, f, f, f, sources=(SRC,)).to_bytes()).params.h == 64


@st.composite
def summaries(draw):
    params = AmfParams(m=draw(st.integers(8, 100)), h=draw(st.integers(1, 4)))
    filters = []
    for _ in COMPONENTS:
        f = BloomFilter(params)
        for j in draw(st.lists(st.integers(0, params.m - 1), max_size=12)):
            f.bits[j >> 3] |= 1 << (j & 7)
        filters.append(f)
    sources = draw(st.lists(st.text(max_size=10), max_size=3))
    return Summary(*filters, sources=tuple(sources))


NON_ASCII = Summary(*[BloomFilter(AmfParams(m=12, h=2))] * 4, sources=("ü", "€", "😀", ""))


class TestWireProperties:
    @settings(deadline=None)
    @given(summaries())
    @example(NON_ASCII)
    def test_round_trip_is_byte_identical(self, summary):
        data = summary.to_bytes()
        parsed = Summary.from_bytes(data)
        assert parsed.sources == summary.sources
        assert parsed.filters() == summary.filters()
        assert parsed.to_bytes() == data

    @settings(deadline=None, max_examples=50)
    @given(summaries(), st.integers(1, 255), st.integers(0, 255))
    @example(NON_ASCII, 0x80, 0)
    def test_damaged_dumps_fail_only_with_format_error(self, summary, flip, extra):
        data = summary.to_bytes()
        for end in range(len(data)):
            with pytest.raises(FormatError):
                Summary.from_bytes(data[:end])
        with pytest.raises(FormatError, match="trailing"):
            Summary.from_bytes(data + bytes([extra]))
        for i in range(len(data)):
            damaged = data[:i] + bytes([data[i] ^ flip]) + data[i + 1 :]
            try:
                Summary.from_bytes(damaged)
            except FormatError:
                pass


class TestFileSummary:
    def test_uncovered_quads_contribute_nothing(self):
        quad = Quad(iri("urn:s"), iri("urn:p"), literal("o"))
        key_map = PolicyKeyMap({quad.predicate.value: frozenset()}, (quad,))
        summary = create_file_summary([quad], SRC, key_map, PARAMS)
        assert all(f.popcount == 0 for f in summary.filters())
        assert summary.sources == (SRC,)

    def test_covered_quads_probe_positive_per_component(self):
        quad = Quad(iri("urn:s"), iri("urn:p"), literal("o"))
        key_map = _single_key_map(quad, b"k1")
        summary = create_file_summary([quad], SRC, key_map, PARAMS)
        for name in ("subject", "predicate", "object", "graph"):
            assert summary_contains(summary.component(name), quad.component(name), b"k1", SRC)
            assert summary_contains(
                summary.component(name), quad.component(name), b"k1", ANY_SOURCE
            )


def _single_key_map(quad, key):
    from podfed.policy import AccessPolicy, SubjectGroup

    policy = AccessPolicy(
        id="p", subject_group=SubjectGroup("urn:pod", "friends"), effect="permit",
        file_uri=SRC,
    )
    return PolicyKeyMap({quad.predicate.value: frozenset({(policy, key)})}, (quad,))


class TestEstimate:
    def test_empty_filter_never_false_positive(self):
        assert false_positive_rate(PARAMS, 0) == 0.0
        assert BloomFilter(PARAMS).estimated_fpr == 0.0

    def test_matches_spelled_out_formula(self):
        params = AmfParams(m=16384, h=11)
        by_hand = (1.0 - math.exp(-11 * (2 * 500) / 16384)) ** 11
        assert false_positive_rate(params, 1000) == pytest.approx(by_hand, rel=1e-12)
        f = BloomFilter(params)
        for i in range(500):
            summary_add(f, iri(f"urn:x:{i}"), b"k", SRC)
        assert f.estimated_fpr == (f.popcount / 16384) ** 11
        # the fill estimate tracks the analytic rate for distinct elements
        assert f.estimated_fpr == pytest.approx(by_hand, rel=0.25)

    def test_fill_estimate_ignores_repeated_adds(self):
        f = BloomFilter(PARAMS)
        for _ in range(100):
            summary_add(f, iri("urn:x"), b"k", SRC)
        once = BloomFilter(PARAMS)
        summary_add(once, iri("urn:x"), b"k", SRC)
        assert f.estimated_fpr == once.estimated_fpr
        assert ExactFilter(PARAMS).estimated_fpr == 0.0

    def test_monotone_in_inserts_and_size(self):
        assert false_positive_rate(PARAMS, 200) < false_positive_rate(PARAMS, 400)
        assert false_positive_rate(AmfParams(m=8192, h=5), 200) < false_positive_rate(
            AmfParams(m=4096, h=5), 200
        )

    def test_negative_inserts_rejected(self):
        with pytest.raises(ValueError):
            false_positive_rate(PARAMS, -1)
