"""Privacy-preserving approximate-membership summaries over quad components.

Elements are (term, access key, source URI) triples. Each triple is encoded
as SHA-256 over a length-prefixed concatenation of its three byte strings,
which makes the encoding injective; the access key is mixed into the hash so
parties without the key see nothing beyond false-positive noise. Probe
positions come from standard double hashing: with ``h1`` the first eight
digest bytes (little-endian) and ``h2`` the next eight with the lowest bit
forced odd, probe ``i`` is ``(h1 + i*h2) mod m``.

Every add inserts the element twice: once under its concrete source URI and
once under the wildcard source (the empty URI), so a client can ask "is this
value in any source?" with a single probe.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .policy import AccessKey, PolicyKeyMap
from .quads import COMPONENTS, Quad, Term, canonical_bytes

# Wildcard source URI: matches elements from every source.
ANY_SOURCE = ""

HASH_SHA256 = 1

FILTER_MAGIC = b"PPFS"
SUMMARY_MAGIC = b"PPAS"
FORMAT_VERSION = 1


class ParamsMismatchError(ValueError):
    """Raised when combining summaries built with incompatible parameters."""


class FormatError(ValueError):
    """A binary summary is truncated, corrupted or inconsistent."""


@dataclass(frozen=True)
class AmfParams:
    """Bitmap size in bits, number of hash probes, and hash algorithm id."""

    m: int
    h: int
    hash_alg: int = HASH_SHA256

    def __post_init__(self):
        if self.m < 8:
            raise ValueError(f"bitmap must have at least 8 bits, got m={self.m}")
        if self.h < 1:
            raise ValueError(f"need at least one hash probe, got h={self.h}")
        if self.hash_alg != HASH_SHA256:
            raise ValueError(f"unsupported hash algorithm id {self.hash_alg}")


# Defaults give < 0.1% false positives at ~5000 effective inserts.
DEFAULT_PARAMS = AmfParams(m=2**17, h=11)


def encode_element(component: bytes, key: AccessKey, source_uri: str) -> bytes:
    """Injective digest of a (component bytes, key, source URI) triple."""
    buf = bytearray()
    for chunk in (component, key, source_uri.encode("utf-8")):
        buf += len(chunk).to_bytes(4, "little")
        buf += chunk
    return hashlib.sha256(bytes(buf)).digest()


class BloomFilter:
    """Mergeable bitmap filter; false positives possible, false negatives never.

    Adds require exclusive access; a filter that is no longer mutated can be
    shared between threads for concurrent reads.
    """

    __slots__ = ("params", "bits")

    def __init__(self, params: AmfParams, bits: bytearray | None = None):
        self.params = params
        nbytes = (params.m + 7) // 8
        if bits is None:
            bits = bytearray(nbytes)
        elif len(bits) != nbytes:
            raise ValueError(f"bitmap has {len(bits)} bytes, expected {nbytes}")
        self.bits = bits

    def insert_digest(self, digest: bytes):
        m = self.params.m
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:16], "little") | 1
        bits = self.bits
        for i in range(self.params.h):
            j = (h1 + i * h2) % m
            bits[j >> 3] |= 1 << (j & 7)

    def contains_digest(self, digest: bytes) -> bool:
        m = self.params.m
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:16], "little") | 1
        bits = self.bits
        for i in range(self.params.h):
            j = (h1 + i * h2) % m
            if not bits[j >> 3] & (1 << (j & 7)):
                return False
        return True

    @property
    def popcount(self) -> int:
        return int.from_bytes(self.bits, "little").bit_count()

    @property
    def estimated_fpr(self) -> float:
        """False-positive rate at the current fill: (set bits / m) ** h."""
        return (self.popcount / self.params.m) ** self.params.h

    def copy(self) -> "BloomFilter":
        return BloomFilter(self.params, bytearray(self.bits))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return self.params == other.params and self.bits == other.bits

    def __repr__(self) -> str:
        return f"BloomFilter(m={self.params.m}, h={self.params.h}, popcount={self.popcount})"

    def to_bytes(self) -> bytes:
        """Binary form: magic, version, hash-alg, h (LE16), m in bits (LE64),
        then the bitmap with bit j at byte j>>3, position j&7, LSB-first."""
        return (
            FILTER_MAGIC
            + bytes([FORMAT_VERSION, self.params.hash_alg])
            + self.params.h.to_bytes(2, "little")
            + self.params.m.to_bytes(8, "little")
            + bytes(self.bits)
        )


class ExactFilter:
    """Exact-membership stand-in for a Bloom filter, used as a test oracle.

    Same interface, zero false positives: it simply remembers every inserted
    digest. Not serializable.
    """

    __slots__ = ("params", "digests")

    def __init__(self, params: AmfParams, digests: set[bytes] | None = None):
        self.params = params
        self.digests = digests if digests is not None else set()

    def insert_digest(self, digest: bytes):
        self.digests.add(digest)

    def contains_digest(self, digest: bytes) -> bool:
        return digest in self.digests

    @property
    def popcount(self) -> int:
        return len(self.digests)

    @property
    def estimated_fpr(self) -> float:
        return 0.0

    def copy(self) -> "ExactFilter":
        return ExactFilter(self.params, set(self.digests))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactFilter):
            return NotImplemented
        return self.params == other.params and self.digests == other.digests

    def __repr__(self) -> str:
        return f"ExactFilter(entries={len(self.digests)})"


FilterFactory = Callable[[AmfParams], "BloomFilter | ExactFilter"]


def summary_add(f, term: Term, key: AccessKey, source_uri: str):
    """Insert a term under (key, source URI) and under (key, wildcard source).

    The source URI must be concrete here; the wildcard entry is what lets
    clients later probe with the source left open.
    """
    if source_uri == ANY_SOURCE:
        raise ValueError("source URI must be concrete when adding")
    component = canonical_bytes(term)
    f.insert_digest(encode_element(component, key, source_uri))
    f.insert_digest(encode_element(component, key, ANY_SOURCE))
    return f


def summary_contains(f, term: Term, key: AccessKey, source_uri: str) -> bool:
    """Probe for a term under (key, source URI); pass ANY_SOURCE to ask
    whether any source contains it."""
    return f.contains_digest(encode_element(canonical_bytes(term), key, source_uri))


def summary_combine(a, b):
    """Union of two filters; must share parameters (and filter type).

    Commutative, associative, idempotent, and equal to a filter built by
    adding both element multisets directly.
    """
    if type(a) is not type(b) or a.params != b.params:
        raise ParamsMismatchError(
            f"cannot combine incompatible summaries: {a!r} vs {b!r}"
        )
    if isinstance(a, ExactFilter):
        return ExactFilter(a.params, a.digests | b.digests)
    merged = int.from_bytes(a.bits, "little") | int.from_bytes(b.bits, "little")
    return BloomFilter(a.params, bytearray(merged.to_bytes(len(a.bits), "little")))


@dataclass
class Summary:
    """One filter per quad component plus the sources the filters cover.

    A pod's file summary covers one source; the aggregator's combined
    summary covers every aggregated source. ``generation`` lives in memory
    only and is not part of the binary form.
    """

    subject: BloomFilter | ExactFilter
    predicate: BloomFilter | ExactFilter
    object: BloomFilter | ExactFilter
    graph: BloomFilter | ExactFilter
    sources: tuple[str, ...]
    generation: int = 0

    @property
    def params(self) -> AmfParams:
        return self.subject.params

    def component(self, name: str):
        return getattr(self, name)

    def filters(self):
        return [self.component(name) for name in COMPONENTS]

    def to_bytes(self) -> bytes:
        """Binary form: magic, version, LE32 source count, LE32
        length-prefixed UTF-8 URIs, then the four filters in their own
        binary form, in component order."""
        out = bytearray(SUMMARY_MAGIC)
        out.append(FORMAT_VERSION)
        out += len(self.sources).to_bytes(4, "little")
        for uri in self.sources:
            raw = uri.encode("utf-8")
            out += len(raw).to_bytes(4, "little")
            out += raw
        for f in self.filters():
            out += f.to_bytes()
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Summary":
        """Parse the binary form. Any defect, including bytes left over after
        the last filter, raises FormatError; each length and count is checked
        against the bytes left before anything is read or allocated for it."""
        reader = _Reader(data)
        reader.header(SUMMARY_MAGIC, "summary")
        count = reader.uint(4, "source count")
        # every URI takes at least its 4-byte length prefix
        if count > reader.left // 4:
            raise FormatError(f"source count {count} exceeds the {reader.left} bytes left")
        sources = tuple(reader.text("source URI") for _ in range(count))
        filters = [reader.bloom_filter() for _ in COMPONENTS]
        if any(f.params != filters[0].params for f in filters):
            raise FormatError("component filters have different parameters")
        if reader.left:
            raise FormatError(f"{reader.left} trailing bytes after the summary")
        return cls(*filters, sources=sources)


class _Reader:
    """Cursor over a binary summary; every read is checked against the
    bytes left."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    @property
    def left(self) -> int:
        return len(self.data) - self.pos

    def take(self, n: int, what: str) -> bytes:
        if n > self.left:
            raise FormatError(
                f"truncated {what}: {n} bytes needed at offset {self.pos}, {self.left} left"
            )
        self.pos += n
        return self.data[self.pos - n : self.pos]

    def uint(self, n: int, what: str) -> int:
        return int.from_bytes(self.take(n, what), "little")

    def header(self, magic: bytes, what: str):
        if self.take(len(magic), f"{what} magic") != magic:
            raise FormatError(f"bad {what} magic at offset {self.pos - len(magic)}")
        version = self.uint(1, f"{what} version")
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported {what} format version {version}")

    def text(self, what: str) -> str:
        raw = self.take(self.uint(4, f"{what} length"), what)
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{what} ending at offset {self.pos} is not UTF-8") from None

    def bloom_filter(self) -> BloomFilter:
        """One filter record: the layout BloomFilter.to_bytes writes."""
        self.header(FILTER_MAGIC, "filter")
        hash_alg = self.uint(1, "hash algorithm id")
        h = self.uint(2, "probe count")
        m = self.uint(8, "bitmap size")
        try:
            params = AmfParams(m=m, h=h, hash_alg=hash_alg)
        except ValueError as exc:
            raise FormatError(f"bad filter parameters: {exc}") from None
        bits = self.take((m + 7) // 8, "filter bitmap")
        # padding bits past m are never set, so the binary form stays canonical
        if bits[-1] >> (m % 8 or 8):
            raise FormatError("filter bitmap sets bits beyond m")
        return BloomFilter(params, bytearray(bits))


def create_file_summary(
    quads: Sequence[Quad],
    source_uri: str,
    key_map: PolicyKeyMap,
    params: AmfParams = DEFAULT_PARAMS,
    filter_cls: FilterFactory = BloomFilter,
) -> Summary:
    """Summarize a file's quads, component by component, under each access
    key that permits them.

    Quads with no permitting policy contribute nothing (fail closed): data
    nobody may read must not be discoverable either.
    """
    filters = {name: filter_cls(params) for name in COMPONENTS}
    for quad in quads:
        for key in key_map.permit_keys_for(quad):
            for name in COMPONENTS:
                summary_add(filters[name], quad.component(name), key, source_uri)
    return Summary(**filters, sources=(source_uri,))


def false_positive_rate(params: AmfParams, effective_inserts: int) -> float:
    """Analytic false-positive rate after ``effective_inserts`` raw digest
    insertions; each ``summary_add`` of a new element makes two."""
    if effective_inserts < 0:
        raise ValueError("insert count must be non-negative")
    if effective_inserts == 0:
        return 0.0
    return (1.0 - math.exp(-params.h * effective_inserts / params.m)) ** params.h
