import pytest

from podfed.policy import (
    DENY_OVERRIDES,
    PERMIT,
    PERMIT_OVERRIDES,
    PROHIBIT,
    PUBLIC_KEY,
    TIER_ACQUAINTANCES,
    TIER_EVERYONE,
    TIER_FRIENDS,
    AccessPolicy,
    Identity,
    KeyRing,
    KeyStore,
    PolicyError,
    allowed_access,
    create_access_keys,
    keyring_for,
)
from podfed.policy import SubjectGroup
from podfed.quads import Quad, iri, literal

FILE = "urn:pod:file"
POD = "urn:pod:owner"


def quad(pred="urn:v:name", obj="x"):
    return Quad(iri("urn:s"), iri(pred), literal(obj))


def group(tier, *members):
    return SubjectGroup(POD, tier, frozenset(members))


def policy(pid, tier_group, effect=PERMIT, predicates=(), file_uri=FILE):
    return AccessPolicy(
        id=pid,
        subject_group=tier_group,
        effect=effect,
        file_uri=file_uri,
        predicates=frozenset(predicates),
    )


class TestGroups:
    def test_everyone_contains_anyone_even_anonymous(self):
        g = group(TIER_EVERYONE)
        assert g.contains("urn:someone")
        assert g.contains(None)

    def test_named_tiers_contain_members_only(self):
        g = group(TIER_FRIENDS, "urn:alice")
        assert g.contains("urn:alice")
        assert not g.contains("urn:bob")
        assert not g.contains(None)

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError):
            SubjectGroup(POD, "enemies")


class TestPolicy:
    def test_covers_checks_file_and_predicate(self):
        # the file is checked by create_access_keys (policies on other files are ignored)
        p = policy("p1", group(TIER_EVERYONE), predicates={"urn:v:name"})
        assert p.covers("urn:v:name")
        assert not p.covers("urn:v:email")

    def test_empty_predicate_set_covers_all(self):
        p = policy("p1", group(TIER_EVERYONE))
        assert p.covers("urn:v:anything")

    def test_effect_validated(self):
        with pytest.raises(ValueError):
            policy("p1", group(TIER_EVERYONE), effect="allow")


class TestKeyStore:
    def test_everyone_tier_gets_the_public_key(self):
        store = KeyStore()
        assert store.generate_key(policy("p", group(TIER_EVERYONE))) == PUBLIC_KEY

    def test_restricted_tier_gets_a_random_key_memoized(self):
        store = KeyStore()
        p = policy("p", group(TIER_FRIENDS, "urn:alice"))
        key = store.generate_key(p)
        assert len(key) == 32
        assert store.generate_key(p) == key

    def test_prohibit_policies_have_no_key(self):
        store = KeyStore()
        with pytest.raises(PolicyError):
            store.generate_key(policy("p", group(TIER_FRIENDS), effect=PROHIBIT))

    def test_fixed_seed_is_deterministic_across_stores(self):
        p = policy("p", group(TIER_FRIENDS, "urn:alice"))
        assert KeyStore(fixed_seed=5).generate_key(p) == KeyStore(fixed_seed=5).generate_key(p)
        assert KeyStore(fixed_seed=5).generate_key(p) != KeyStore(fixed_seed=6).generate_key(p)

    @pytest.mark.parametrize(
        "seed,key",
        [
            (-(2**63), "3e0820355a1f537d9fbe761bae556618ffb0fbea9ab2fa7a954fbe848335b585"),
            (0, "8ed4aef30cc0d176a325879776bfdccb398759ba573d46c9f2f1356aad8c7acb"),
            (2**63 - 1, "8ef7421f1052214170538c3087b7bb4a81d1fbc53b27c921ce0cbace816ad4c8"),
        ],
    )
    def test_fixed_seed_keys_are_pinned(self, seed, key):
        p = AccessPolicy("p", SubjectGroup(POD, TIER_FRIENDS, frozenset({"urn:alice"})), PERMIT, FILE)
        assert KeyStore(fixed_seed=seed).generate_key(p).hex() == key

    @pytest.mark.parametrize("seed", [2**63, -(2**63) - 1, 2**64])
    def test_seed_outside_64_bits_rejected_at_construction(self, seed):
        with pytest.raises(ValueError, match="signed 64-bit"):
            KeyStore(fixed_seed=seed)

    def test_rotation_replaces_the_key(self):
        store = KeyStore(fixed_seed=5)
        p = policy("p", group(TIER_FRIENDS, "urn:alice"))
        old = store.generate_key(p)
        new = store.rotate(p)
        assert new != old
        assert store.generate_key(p) == new

    def test_public_and_prohibit_keys_cannot_rotate(self):
        store = KeyStore()
        with pytest.raises(PolicyError):
            store.rotate(policy("p", group(TIER_EVERYONE)))
        with pytest.raises(PolicyError):
            store.rotate(policy("q", group(TIER_FRIENDS), effect=PROHIBIT))


class TestCreateAccessKeys:
    def test_maps_quads_to_their_policies(self):
        name_q, tel_q = quad("urn:v:name"), quad("urn:v:telephone")
        p_name = policy("r1", group(TIER_EVERYONE), predicates={"urn:v:name"})
        p_tel = policy("r2", group(TIER_FRIENDS, "urn:a"), predicates={"urn:v:telephone"})
        km = create_access_keys(FILE, [name_q, tel_q], [p_name, p_tel], KeyStore())
        assert km.permit_keys_for(name_q) == {PUBLIC_KEY}
        tel_keys = km.permit_keys_for(tel_q)
        assert len(tel_keys) == 1 and PUBLIC_KEY not in tel_keys

    def test_uncovered_quads_map_to_nothing(self):
        km = create_access_keys(FILE, [quad()], [], KeyStore())
        assert km.permit_keys_for(quad()) == set()
        assert km.pairs_for(quad()) == frozenset()

    def test_policies_on_other_files_are_ignored(self):
        elsewhere = [
            policy("r1", group(TIER_EVERYONE), file_uri="urn:pod:other"),
            policy("r2", group(TIER_FRIENDS, "urn:a"), effect=PROHIBIT, file_uri="urn:pod:other"),
        ]
        own = policy("r3", group(TIER_FRIENDS))
        km = create_access_keys(FILE, [quad()], elsewhere + [own], KeyStore())
        assert {p.id for p, _ in km.pairs_for(quad())} == {"r3"}

    def test_prohibit_pairs_carry_no_key(self):
        p = policy("r1", group(TIER_FRIENDS, "urn:a"), effect=PROHIBIT)
        km = create_access_keys(FILE, [quad()], [p], KeyStore())
        [(_, key)] = km.pairs_for(quad())
        assert key is None
        assert km.permit_keys_for(quad()) == set()


class TestAllowedAccess:
    friend = Identity("urn:alice")
    stranger = Identity("urn:eve")

    def pairs(self, *policies):
        store = KeyStore()
        return [
            (p, store.generate_key(p) if p.effect == PERMIT else None) for p in policies
        ]

    def test_no_applicable_permit_means_denied(self):
        pairs = self.pairs(policy("p", group(TIER_FRIENDS, "urn:alice")))
        assert allowed_access(pairs, self.friend)
        assert not allowed_access(pairs, self.stranger)
        assert not allowed_access([], self.friend)

    def test_anonymous_matches_only_everyone(self):
        everyone = self.pairs(policy("p", group(TIER_EVERYONE)))
        friends = self.pairs(policy("q", group(TIER_FRIENDS, "urn:alice")))
        assert allowed_access(everyone, None)
        assert not allowed_access(friends, None)

    def test_deny_overrides_beats_permit(self):
        pairs = self.pairs(
            policy("p", group(TIER_EVERYONE)),
            policy("q", group(TIER_FRIENDS, "urn:alice"), effect=PROHIBIT),
        )
        assert not allowed_access(pairs, self.friend, DENY_OVERRIDES)
        # the prohibition does not apply to the stranger
        assert allowed_access(pairs, self.stranger, DENY_OVERRIDES)

    def test_permit_overrides_beats_prohibit(self):
        pairs = self.pairs(
            policy("p", group(TIER_EVERYONE)),
            policy("q", group(TIER_FRIENDS, "urn:alice"), effect=PROHIBIT),
        )
        assert allowed_access(pairs, self.friend, PERMIT_OVERRIDES)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            allowed_access([], self.friend, "coin-flip")


class TestKeyring:
    def test_membership_drives_key_grants(self):
        store = KeyStore()
        p_pub = policy("r1", group(TIER_EVERYONE))
        p_friends = policy("r2", group(TIER_FRIENDS, "urn:alice"))
        p_acq = policy("r3", group(TIER_ACQUAINTANCES, "urn:alice", "urn:bob"))
        policies = [p_pub, p_friends, p_acq]

        alice = keyring_for(Identity("urn:alice"), policies, store)
        bob = keyring_for(Identity("urn:bob"), policies, store)
        nobody = keyring_for(None, policies, store)

        assert alice.keys == {PUBLIC_KEY, store.generate_key(p_friends), store.generate_key(p_acq)}
        assert bob.keys == {PUBLIC_KEY, store.generate_key(p_acq)}
        assert nobody.keys == {PUBLIC_KEY}

    def test_rotation_shows_up_in_fresh_keyrings(self):
        store = KeyStore(fixed_seed=1)
        p = policy("r2", group(TIER_FRIENDS, "urn:alice"))
        old = store.generate_key(p)
        store.rotate(p)
        ring = keyring_for(Identity("urn:alice"), [p], store)
        assert old not in ring
        assert store.generate_key(p) in ring

    def test_keyring_always_contains_public(self):
        with pytest.raises(ValueError):
            KeyRing(owner="urn:x", keys=frozenset({b"only-secret"}))

    def test_identity_requires_webid(self):
        with pytest.raises(ValueError):
            Identity("")
