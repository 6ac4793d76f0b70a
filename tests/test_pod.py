import logging

import pytest

from podfed.pod import Pod, UnknownFileError
from podfed.policy import (
    PERMIT,
    PERMIT_OVERRIDES,
    PROHIBIT,
    PUBLIC_KEY,
    TIER_EVERYONE,
    TIER_FRIENDS,
    AccessPolicy,
    Identity,
    KeyStore,
    SubjectGroup,
)
from podfed.quads import Quad, QuadPattern, Variable, iri, literal, parse_quads
from podfed.summary import ANY_SOURCE, AmfParams, ExactFilter, summary_contains

OWNER = "urn:owner"
FRIEND = "urn:friend"
STRANGER = "urn:stranger"
FILE = "urn:pod:profile"
PARAMS = AmfParams(m=4096, h=5)

NAME_Q = Quad(iri(OWNER), iri("urn:v:name"), literal("Owner"))
TEL_Q = Quad(iri(OWNER), iri("urn:v:telephone"), literal("123"))

ALL = QuadPattern(Variable("s"), Variable("p"), Variable("o"), Variable("g"))


def tel_pattern():
    return QuadPattern(Variable("s"), iri("urn:v:telephone"), Variable("o"), Variable("g"))


def make_pod(policies=None, files=None, registry=None, **kwargs):
    groups = {
        TIER_EVERYONE: SubjectGroup(OWNER, TIER_EVERYONE),
        TIER_FRIENDS: SubjectGroup(OWNER, TIER_FRIENDS, frozenset({OWNER, FRIEND})),
    }
    if policies is None:
        policies = [
            AccessPolicy(id="name-pub", subject_group=groups[TIER_EVERYONE],
                         effect=PERMIT, file_uri=FILE, predicates=frozenset({"urn:v:name"})),
            AccessPolicy(id="tel-friends", subject_group=groups[TIER_FRIENDS],
                         effect=PERMIT, file_uri=FILE, predicates=frozenset({"urn:v:telephone"})),
        ]
    return Pod(
        owner_webid=OWNER,
        files=files if files is not None else {FILE: [NAME_Q, TEL_Q]},
        policies=policies,
        identity_registry=registry if registry is not None else {
            OWNER: "owner-token", FRIEND: "friend-token", STRANGER: "stranger-token",
        },
        keystore=KeyStore(fixed_seed=3),
        params=PARAMS,
        **kwargs,
    )


class TestEnforcement:
    def test_per_quad_enforcement(self):
        pod = make_pod()
        assert pod.execute_query(Identity(FRIEND, "friend-token"), ALL, FILE) == {NAME_Q, TEL_Q}
        assert pod.execute_query(Identity(STRANGER, "stranger-token"), ALL, FILE) == {NAME_Q}
        assert pod.execute_query(None, ALL, FILE) == {NAME_Q}

    def test_owner_reads_everything_via_group_membership(self):
        pod = make_pod()
        assert pod.execute_query(Identity(OWNER, "owner-token"), ALL, FILE) == {NAME_Q, TEL_Q}

    def test_results_never_exceed_the_owners(self):
        pod = make_pod()
        owner_result = pod.execute_query(Identity(OWNER, "owner-token"), ALL, FILE)
        for who in (Identity(FRIEND, "friend-token"), Identity(STRANGER, "stranger-token"), None):
            assert pod.execute_query(who, ALL, FILE) <= owner_result

    def test_bad_token_means_empty_result(self):
        pod = make_pod()
        assert pod.execute_query(Identity(FRIEND, "wrong"), ALL, FILE) == set()

    def test_unregistered_webid_means_empty_result(self):
        pod = make_pod()
        assert pod.execute_query(Identity("urn:ghost", ""), ALL, FILE) == set()

    def test_unknown_file_is_an_error_not_a_denial(self):
        pod = make_pod()
        with pytest.raises(UnknownFileError):
            pod.execute_query(None, ALL, "urn:pod:missing")
        with pytest.raises(UnknownFileError):
            pod.get_file_summary("urn:pod:missing")

    def test_pattern_restricts_results(self):
        pod = make_pod()
        assert pod.execute_query(Identity(FRIEND, "friend-token"), tel_pattern(), FILE) == {TEL_Q}
        assert pod.execute_query(Identity(STRANGER, "stranger-token"), tel_pattern(), FILE) == set()

    def test_policy_must_reference_existing_file(self):
        groups = {TIER_EVERYONE: SubjectGroup(OWNER, TIER_EVERYONE)}
        bad = AccessPolicy(id="x", subject_group=groups[TIER_EVERYONE],
                           effect=PERMIT, file_uri="urn:pod:nope")
        with pytest.raises(ValueError, match="unknown file"):
            make_pod(policies=[bad])


class TestConflictStrategies:
    def build(self, strategy):
        groups = {
            TIER_EVERYONE: SubjectGroup(OWNER, TIER_EVERYONE),
            TIER_FRIENDS: SubjectGroup(OWNER, TIER_FRIENDS, frozenset({FRIEND})),
        }
        policies = [
            AccessPolicy(id="all-pub", subject_group=groups[TIER_EVERYONE],
                         effect=PERMIT, file_uri=FILE),
            AccessPolicy(id="no-friends", subject_group=groups[TIER_FRIENDS],
                         effect=PROHIBIT, file_uri=FILE),
        ]
        return make_pod(policies=policies, conflict_strategy=strategy)

    def test_deny_overrides(self):
        pod = self.build("deny-overrides")
        assert pod.execute_query(Identity(FRIEND, "friend-token"), ALL, FILE) == set()
        assert pod.execute_query(Identity(STRANGER, "stranger-token"), ALL, FILE) == {NAME_Q, TEL_Q}

    def test_permit_overrides(self):
        pod = self.build(PERMIT_OVERRIDES)
        assert pod.execute_query(Identity(FRIEND, "friend-token"), ALL, FILE) == {NAME_Q, TEL_Q}


class TestSummaries:
    def test_summary_positive_for_stored_terms(self):
        pod = make_pod()
        summary = pod.get_file_summary(FILE)
        assert summary_contains(summary.component("predicate"), iri("urn:v:name"),
                                PUBLIC_KEY, ANY_SOURCE)
        assert summary_contains(summary.component("subject"), iri(OWNER), PUBLIC_KEY, FILE)

    def test_restricted_terms_not_under_public(self):
        pod = make_pod(filter_cls=ExactFilter)
        summary = pod.get_file_summary(FILE)
        assert not summary_contains(summary.component("predicate"),
                                    iri("urn:v:telephone"), PUBLIC_KEY, ANY_SOURCE)

    def test_empty_file_has_empty_filters(self):
        pod = make_pod(files={FILE: []})
        assert all(f.popcount == 0 for f in pod.get_file_summary(FILE).filters())

    def test_unpoliced_quads_warned_and_left_unsummarized(self, caplog):
        rogue = Quad(iri(OWNER), iri("urn:v:secret"), literal("s3cr3t"))
        with caplog.at_level(logging.WARNING, logger="podfed.pod"):
            pod = make_pod(files={FILE: [NAME_Q, rogue]}, filter_cls=ExactFilter)
        assert any("inaccessible" in r.message for r in caplog.records)
        # stored, but neither queryable by anyone nor discoverable
        assert rogue in pod.file_quads(FILE)
        assert pod.execute_query(Identity(OWNER, "owner-token"), ALL, FILE) == {NAME_Q}
        summary = pod.get_file_summary(FILE)
        assert not summary_contains(summary.component("predicate"), iri("urn:v:secret"),
                                    PUBLIC_KEY, ANY_SOURCE)


class TestUpdates:
    def test_update_replaces_and_notifies(self):
        pod = make_pod()
        seen = []
        pod.add_change_listener(seen.append)
        new_q = parse_quads(f'<{OWNER}> <urn:v:name> "Renamed" .')[0]
        note = pod.update_file(FILE, [new_q])
        assert note.file_uri == FILE and note.pod_owner == OWNER
        assert seen == [note]
        assert pod.file_quads(FILE) == (new_q,)
        summary = pod.get_file_summary(FILE)
        assert summary_contains(summary.component("object"), literal("Renamed"),
                                PUBLIC_KEY, FILE)

    def test_update_of_unknown_file_is_rejected(self):
        pod = make_pod()
        seen = []
        pod.add_change_listener(seen.append)
        before = pod.get_file_summary(FILE)
        with pytest.raises(UnknownFileError):
            pod.update_file("urn:pod:new", [NAME_Q])
        assert pod.file_uris == (FILE,)
        assert pod.get_file_summary(FILE) is before
        assert seen == []

    def test_identical_rewrite_keeps_summary_bytes(self):
        pod = make_pod()
        before = pod.get_file_summary(FILE).to_bytes()
        pod.update_file(FILE, [NAME_Q, TEL_Q])
        assert pod.get_file_summary(FILE).to_bytes() == before

    def test_removed_terms_become_negative_with_exact_filters(self):
        pod = make_pod(filter_cls=ExactFilter)
        pod.update_file(FILE, [NAME_Q])
        summary = pod.get_file_summary(FILE)
        friend_keys = [k for k in pod.key_map.permit_keys_for(NAME_Q)]
        assert friend_keys  # sanity: the remaining quad is still covered
        assert not any(
            summary_contains(summary.component("predicate"), iri("urn:v:telephone"), key, FILE)
            for key in (PUBLIC_KEY, *friend_keys)
        )
