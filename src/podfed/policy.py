"""Access policies, subject groups, symmetric access keys, and each file's
predicate-to-(policy, key) map, used both to build the file's summary and
to enforce access to it at query time.

Keys are plain byte strings. Every permit policy owns exactly one key;
policies whose subject group is the universal "everyone" tier map to the
distinguished PUBLIC key (the empty byte string), because public data
needs no secret. Prohibit policies restrict access but never carry a key
and never contribute summary entries.
"""

from __future__ import annotations

import hashlib
import secrets
import threading
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .quads import Quad

AccessKey = bytes

# The distinguished key for universally readable data.
PUBLIC_KEY: AccessKey = b""

KEY_LENGTH = 32

TIER_EVERYONE = "everyone"
TIER_ACQUAINTANCES = "acquaintances"
TIER_FRIENDS = "friends"
TIERS = (TIER_EVERYONE, TIER_ACQUAINTANCES, TIER_FRIENDS)

PERMIT = "permit"
PROHIBIT = "prohibit"

DENY_OVERRIDES = "deny-overrides"
PERMIT_OVERRIDES = "permit-overrides"
CONFLICT_STRATEGIES = (DENY_OVERRIDES, PERMIT_OVERRIDES)


class PolicyError(ValueError):
    pass


@dataclass(frozen=True)
class Identity:
    """A client's authentication identity for the simulated registry."""

    webid: str
    token: str = ""

    def __post_init__(self):
        if not self.webid:
            raise ValueError("webid must be non-empty")


@dataclass(frozen=True)
class SubjectGroup:
    """One tier of a pod's hierarchical subject groups.

    The everyone tier is implicitly universal; its member set is ignored.
    """

    pod_id: str
    tier: str
    members: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.tier not in TIERS:
            raise ValueError(f"unknown tier {self.tier!r}")

    def contains(self, webid: str | None) -> bool:
        if self.tier == TIER_EVERYONE:
            return True
        return webid is not None and webid in self.members


@dataclass(frozen=True)
class AccessPolicy:
    """⟨subject group, effect, file + predicates⟩ rule on reading quads.

    An empty predicate set covers every predicate in the file.
    """

    id: str
    subject_group: SubjectGroup
    effect: str
    file_uri: str
    predicates: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.effect not in (PERMIT, PROHIBIT):
            raise ValueError(f"unknown policy effect {self.effect!r}")

    def covers(self, predicate: str) -> bool:
        return not self.predicates or predicate in self.predicates


# (policy, key) with key None for prohibitions, which carry no key.
PolicyKeyPair = tuple[AccessPolicy, "AccessKey | None"]


@dataclass(frozen=True)
class PolicyKeyMap:
    """A file's quads and, per predicate IRI they use, the (policy, key)
    pairs that apply to them: a policy covers a quad only through its
    predicate. Quads whose predicate maps to the empty set are covered by
    no policy and are treated as inaccessible.
    """

    entries: Mapping[str, frozenset[PolicyKeyPair]]
    governed: tuple[Quad, ...]

    def pairs_for(self, quad: Quad) -> frozenset[PolicyKeyPair]:
        return self.entries.get(quad.predicate.value, frozenset())

    def permit_keys_for(self, quad: Quad) -> set[AccessKey]:
        """Deduplicated keys of the permit policies covering the quad."""
        return {
            key for policy, key in self.pairs_for(quad) if policy.effect == PERMIT
        }

    def quads(self) -> Iterable[Quad]:
        return self.governed


@dataclass(frozen=True)
class KeyRing:
    """An identity's granted access keys; always includes PUBLIC."""

    owner: str | None
    keys: frozenset[AccessKey]

    def __post_init__(self):
        if PUBLIC_KEY not in self.keys:
            raise ValueError("keyring must contain the PUBLIC key")

    def __contains__(self, key: AccessKey) -> bool:
        return key in self.keys

    def __len__(self) -> int:
        return len(self.keys)


class KeyStore:
    """Issues and remembers the one symmetric key of each permit policy.

    Keys come from a cryptographically strong source by default. With
    ``fixed_seed`` set, keys are derived deterministically from
    (seed, rotation generation, policy id) so repeated runs produce
    byte-identical summaries. Initialization per policy id is atomic.
    """

    def __init__(self, fixed_seed: int | None = None):
        if fixed_seed is not None and not -(2**63) <= fixed_seed < 2**63:
            raise ValueError(f"fixed seed must fit in a signed 64-bit integer, got {fixed_seed}")
        self._fixed_seed = fixed_seed
        self._keys: dict[str, AccessKey] = {}
        self._generations: dict[str, int] = {}
        self._lock = threading.Lock()

    def _derive(self, policy_id: str, generation: int) -> AccessKey:
        if self._fixed_seed is None:
            return secrets.token_bytes(KEY_LENGTH)
        material = (
            b"podfed-key/"
            + self._fixed_seed.to_bytes(8, "little", signed=True)
            + generation.to_bytes(4, "little")
            + policy_id.encode("utf-8")
        )
        return hashlib.sha256(material).digest()

    def generate_key(self, policy: AccessPolicy) -> AccessKey:
        """The policy's key: PUBLIC for the everyone tier, else 32 bytes,
        identical on every call for the same policy id."""
        if policy.effect != PERMIT:
            raise PolicyError(f"policy {policy.id!r} is a prohibition and carries no key")
        if policy.subject_group.tier == TIER_EVERYONE:
            return PUBLIC_KEY
        with self._lock:
            key = self._keys.get(policy.id)
            if key is None:
                key = self._derive(policy.id, self._generations.get(policy.id, 0))
                self._keys[policy.id] = key
            return key

    def rotate(self, policy: AccessPolicy) -> AccessKey:
        """Discard the policy's key and issue a fresh one (revocation)."""
        if policy.effect != PERMIT or policy.subject_group.tier == TIER_EVERYONE:
            raise PolicyError(f"policy {policy.id!r} has no rotatable key")
        with self._lock:
            generation = self._generations.get(policy.id, 0) + 1
            self._generations[policy.id] = generation
            key = self._derive(policy.id, generation)
            self._keys[policy.id] = key
            return key


def create_access_keys(
    file_uri: str,
    quads: Sequence[Quad],
    policies: Sequence[AccessPolicy],
    keystore: KeyStore,
) -> PolicyKeyMap:
    """Build the predicate → {(policy, key)} map of one file.

    Only policies on ``file_uri`` govern its quads: a policy on another
    file has no say here, even over an identical quad. Such a policy covers
    a predicate when it is in the policy's predicate set (or the set is
    empty). Predicates no policy covers map to the empty set.
    """
    keyed = [
        (policy, keystore.generate_key(policy) if policy.effect == PERMIT else None)
        for policy in policies
        if policy.file_uri == file_uri
    ]
    predicates = dict.fromkeys(quad.predicate.value for quad in quads)
    entries = {p: frozenset(pair for pair in keyed if pair[0].covers(p)) for p in predicates}
    return PolicyKeyMap(entries, tuple(quads))


def allowed_access(
    pairs: Iterable[PolicyKeyPair],
    identity: Identity | None,
    strategy: str = DENY_OVERRIDES,
) -> bool:
    """Permit/deny decision for one predicate's quads, given its policies.

    ``identity`` is None for unauthenticated clients, which only the
    everyone tier admits. Under deny-overrides any applicable prohibition
    wins; under permit-overrides any applicable permission does. With no
    applicable permit at all, access is denied either way.
    """
    if strategy not in CONFLICT_STRATEGIES:
        raise ValueError(f"unknown conflict strategy {strategy!r}")
    webid = identity.webid if identity is not None else None
    permitted = False
    prohibited = False
    for policy, _key in pairs:
        if not policy.subject_group.contains(webid):
            continue
        if policy.effect == PERMIT:
            permitted = True
        else:
            prohibited = True
    if strategy == PERMIT_OVERRIDES:
        return permitted
    return permitted and not prohibited


def keyring_for(
    identity: Identity | None,
    policies: Iterable[AccessPolicy],
    keystore: KeyStore,
) -> KeyRing:
    """PUBLIC plus the key of every permit policy whose subject group
    contains the identity, across all pods.

    Group hierarchy does the rest: friends are members of the acquaintance
    group too, so they receive that tier's keys as well. Unknown or
    anonymous identities get a PUBLIC-only keyring.
    """
    webid = identity.webid if identity is not None else None
    keys = {PUBLIC_KEY}
    for policy in policies:
        if policy.effect == PERMIT and policy.subject_group.contains(webid):
            keys.add(keystore.generate_key(policy))
    return KeyRing(owner=webid, keys=frozenset(keys))
