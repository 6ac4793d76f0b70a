import logging
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import podfed.pod
from podfed.pod import Pod, UnknownFileError
from podfed.policy import (
    PERMIT,
    PERMIT_OVERRIDES,
    PROHIBIT,
    PUBLIC_KEY,
    TIER_ACQUAINTANCES,
    TIER_EVERYONE,
    TIER_FRIENDS,
    TIERS,
    AccessPolicy,
    Identity,
    KeyStore,
    PolicyError,
    SubjectGroup,
    create_access_keys,
)
from podfed.quads import (
    COMPONENTS, Quad, QuadPattern, Variable, iri, literal, parse_quads, pattern_matches,
)
from podfed.summary import ANY_SOURCE, AmfParams, ExactFilter, summary_add, summary_contains

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

    def test_unknown_strategy_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown conflict strategy 'bogus'"):
            self.build("bogus")


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


OTHER = "urn:pod:other"
OTHER_Q = Quad(iri(OWNER), iri("urn:v:nick"), literal("o"))


class TestIncrementalRebuild:
    def two_file_pod(self):
        everyone = SubjectGroup(OWNER, TIER_EVERYONE)
        friends = SubjectGroup(OWNER, TIER_FRIENDS, frozenset({FRIEND}))
        policies = [
            AccessPolicy(id="tel-friends", subject_group=friends, effect=PERMIT, file_uri=FILE),
            AccessPolicy(id="other-pub", subject_group=everyone, effect=PERMIT, file_uri=OTHER),
        ]
        return make_pod(policies=policies, files={FILE: [TEL_Q], OTHER: [OTHER_Q]})

    @pytest.fixture
    def summarised(self, monkeypatch):
        calls = []
        original = podfed.pod.create_file_summary

        def counting(quads, uri, *args, **kwargs):
            calls.append(uri)
            return original(quads, uri, *args, **kwargs)

        monkeypatch.setattr(podfed.pod, "create_file_summary", counting)
        return calls

    def test_update_summarises_only_the_written_file(self, summarised):
        pod = self.two_file_pod()
        untouched = pod.get_file_summary(OTHER)
        summarised.clear()
        pod.update_file(FILE, [TEL_Q, NAME_Q])
        assert summarised == [FILE]
        assert pod.get_file_summary(OTHER) is untouched

    def test_rotation_resummarises_the_rotated_files(self, summarised):
        pod = self.two_file_pod()
        seen = []
        pod.add_change_listener(seen.append)
        before = {uri: pod.get_file_summary(uri) for uri in (FILE, OTHER)}
        summarised.clear()
        pod.rotate_key(pod.policies[0])
        assert summarised == [FILE]
        assert [n.file_uri for n in seen] == [FILE]
        assert pod.get_file_summary(FILE).to_bytes() != before[FILE].to_bytes()
        assert pod.get_file_summary(OTHER) is before[OTHER]

    def test_shared_quad_resummarises_the_file_whose_keys_changed(self, summarised):
        # each file is keyed by its own policies: writing OTHER_Q into FILE
        # gives FILE's copy the friends key and leaves OTHER's copy alone
        pod = self.two_file_pod()
        before = pod.get_file_summary(OTHER)
        summarised.clear()
        pod.update_file(FILE, [TEL_Q, OTHER_Q])
        assert summarised == [FILE]
        assert pod.get_file_summary(OTHER) is before

    def test_write_logs_only_the_written_files_uncovered_quads(self, caplog):
        rogue = Quad(iri(OWNER), iri("urn:v:secret"), literal("s"))
        with caplog.at_level(logging.WARNING, logger="podfed.pod"):
            pod = make_pod(files={FILE: [NAME_Q], OTHER: [rogue]})
            assert [r.getMessage() for r in caplog.records] == [
                f"pod {OWNER}, file {OTHER}: 1 quad(s) covered by no permit policy; "
                "they are stored but inaccessible and left out of summaries"
            ]
            caplog.clear()
            pod.update_file(FILE, [NAME_Q, TEL_Q])
            assert caplog.records == []
            pod.update_file(OTHER, [rogue, OTHER_Q])
            assert [OTHER in r.getMessage() and "2 quad(s)" in r.getMessage()
                    for r in caplog.records] == [True]


SHARED_Q = Quad(iri(OWNER), iri("urn:v:email"), literal("o@pods"))


class TestPoliciesGovernOnlyTheirFile:
    everyone = SubjectGroup(OWNER, TIER_EVERYONE)

    def open_policy(self, uri, effect=PERMIT):
        return AccessPolicy(id=f"{effect}-{uri}", subject_group=self.everyone,
                            effect=effect, file_uri=uri)

    def public_terms(self, pod, uri):
        predicate = pod.get_file_summary(uri).component("predicate")
        return summary_contains(predicate, SHARED_Q.predicate, PUBLIC_KEY, uri)

    def test_file_without_policy_fails_closed(self):
        # OTHER's public policy covers the same quad, but not in FILE
        pod = make_pod(policies=[self.open_policy(OTHER)],
                       files={FILE: [SHARED_Q], OTHER: [SHARED_Q]}, filter_cls=ExactFilter)
        assert pod.execute_query(None, ALL, FILE) == set()
        assert pod.execute_query(Identity(OWNER, "owner-token"), ALL, FILE) == set()
        assert not self.public_terms(pod, FILE)
        assert pod.execute_query(None, ALL, OTHER) == {SHARED_Q}
        assert self.public_terms(pod, OTHER)

    def test_prohibition_elsewhere_does_not_hide_the_quad(self):
        pod = make_pod(policies=[self.open_policy(FILE), self.open_policy(OTHER, PROHIBIT)],
                       files={FILE: [SHARED_Q], OTHER: [SHARED_Q]}, filter_cls=ExactFilter)
        assert pod.execute_query(None, ALL, FILE) == {SHARED_Q}
        assert pod.execute_query(Identity(FRIEND, "friend-token"), ALL, FILE) == {SHARED_Q}
        assert self.public_terms(pod, FILE)
        assert pod.execute_query(None, ALL, OTHER) == set()
        assert not self.public_terms(pod, OTHER)

    def test_inspection_key_map_is_the_union_of_the_files(self):
        pod = make_pod(policies=[self.open_policy(FILE), self.open_policy(OTHER, PROHIBIT)],
                       files={FILE: [SHARED_Q, NAME_Q], OTHER: [SHARED_Q]})
        assert {p.id for p, _ in pod.key_map.pairs_for(SHARED_Q)} == {
            f"{PERMIT}-{FILE}", f"{PROHIBIT}-{OTHER}"}
        assert pod.key_map.permit_keys_for(NAME_Q) == {PUBLIC_KEY}
        assert set(pod.key_map.quads()) == {SHARED_Q, NAME_Q}


class TestAccessStateIsKeyedByPredicate:
    def test_one_entry_and_at_most_one_decision_per_predicate(self, monkeypatch):
        k = 4
        quads = [Quad(iri(f"urn:s{i % 7}"), iri(f"urn:p{i % k}"), literal(f"v{i}"))
                 for i in range(300)]
        policies = [
            AccessPolicy(id="pub", subject_group=SubjectGroup(OWNER, TIER_EVERYONE),
                         effect=PERMIT, file_uri=FILE, predicates=frozenset({"urn:p0", "urn:p1"})),
            AccessPolicy(id="friends", effect=PERMIT, file_uri=FILE,
                         subject_group=SubjectGroup(OWNER, TIER_FRIENDS, frozenset({FRIEND}))),
        ]
        assert len(create_access_keys(FILE, quads, policies, KeyStore()).entries) == k
        pod = make_pod(policies=policies, files={FILE: quads})
        assert len(pod.file(FILE).key_map.entries) == k
        calls = []
        original = podfed.pod.allowed_access

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(podfed.pod, "allowed_access", counting)
        public = {q for q in quads if q.predicate.value in ("urn:p0", "urn:p1")}
        for who, readable in ((None, public), (Identity(FRIEND, "friend-token"), set(quads))):
            for pattern in (ALL, QuadPattern(iri("urn:s3"), Variable("p"), Variable("o"),
                                             Variable("g"))):
                calls.clear()
                assert pod.execute_query(who, pattern, FILE) == {
                    q for q in readable if pattern_matches(pattern, q)}
                assert 0 < len(calls) <= k


POOL = [Quad(iri(f"urn:s{i % 2}"), iri(f"urn:p{i % 3}"), literal(f"v{i}")) for i in range(6)]
URIS = ["urn:pod:f0", "urn:pod:f1", "urn:pod:f2"]
MEMBERS = {TIER_EVERYONE: frozenset(), TIER_ACQUAINTANCES: frozenset({FRIEND, STRANGER}),
           TIER_FRIENDS: frozenset({FRIEND})}
CONTENTS = st.lists(st.sampled_from(POOL), max_size=5)
POLICIES = st.lists(st.tuples(
    st.sampled_from(URIS),
    st.sampled_from([PERMIT, PERMIT, PROHIBIT]),
    st.sampled_from(TIERS),
    st.frozensets(st.sampled_from(["urn:p0", "urn:p1", "urn:p2"]), max_size=2),
), max_size=6)


def position(name):
    """A ground term from POOL, or one of a few variables shared across positions."""
    return st.one_of(st.sampled_from([q.component(name) for q in POOL]),
                     st.sampled_from([Variable("x"), Variable("y"), Variable(name)]))


PATTERNS = st.lists(st.builds(QuadPattern, *map(position, COMPONENTS)), max_size=3)
STEPS = st.lists(st.one_of(
    st.tuples(st.just("write"), st.sampled_from(URIS), CONTENTS),
    st.tuples(st.just("rotate"), st.integers(0, 5)),
), max_size=6)


class TestPerFileIsolation:
    """Every file's summary and answers follow from its own policies alone,
    whatever the other files hold and however they change."""

    @staticmethod
    def governing(pod, uri, quad):
        return [p for p in pod.policies if p.file_uri == uri
                and (not p.predicates or quad.predicate.value in p.predicates)]

    @staticmethod
    def matches(pattern, quad):
        """Ground positions equal the quad's terms; positions sharing a
        variable hold equal terms."""
        slots = [(pattern.component(n), quad.component(n)) for n in COMPONENTS]
        return all(isinstance(p, Variable) or p == t for p, t in slots) and all(
            t == u for p, t in slots for q, u in slots if isinstance(p, Variable) and p == q)

    def check(self, pod, patterns=()):
        for uri in URIS:
            quads = pod.file_quads(uri)
            expected = {name: ExactFilter(PARAMS) for name in COMPONENTS}
            for quad in quads:
                for p in self.governing(pod, uri, quad):
                    if p.effect == PERMIT:
                        key = pod.keystore.generate_key(p)
                        for name in COMPONENTS:
                            summary_add(expected[name], quad.component(name), key, uri)
            summary = pod.get_file_summary(uri)
            assert all(summary.component(n) == expected[n] for n in COMPONENTS), uri
            for webid in (None, OWNER, FRIEND, STRANGER):
                who = Identity(webid, f"{webid}-token") if webid else None
                allowed = set()
                for quad in quads:
                    effects = {p.effect for p in self.governing(pod, uri, quad)
                               if p.subject_group.contains(webid)}
                    if PERMIT in effects and (PROHIBIT not in effects
                                              or pod.conflict_strategy == PERMIT_OVERRIDES):
                        allowed.add(quad)
                assert pod.execute_query(who, ALL, uri) == allowed, (uri, webid)
                for pattern in patterns:
                    want = {q for q in allowed if self.matches(pattern, q)}
                    assert pod.execute_query(who, pattern, uri) == want, (uri, webid, pattern)

    @settings(deadline=None, max_examples=150)
    @given(st.fixed_dictionaries({uri: CONTENTS for uri in URIS}), POLICIES, STEPS,
           st.sampled_from(["deny-overrides", PERMIT_OVERRIDES]), PATTERNS)
    def test_each_file_follows_only_its_own_policies(self, files, specs, steps, strategy,
                                                     patterns):
        policies = [
            AccessPolicy(id=f"r{i}", subject_group=SubjectGroup(OWNER, tier, MEMBERS[tier]),
                         effect=effect, file_uri=uri, predicates=predicates)
            for i, (uri, effect, tier, predicates) in enumerate(specs)
        ]
        registry = {w: f"{w}-token" for w in (OWNER, FRIEND, STRANGER)}
        pod = make_pod(policies=policies, files=files, registry=registry,
                       filter_cls=ExactFilter, conflict_strategy=strategy)
        self.check(pod, patterns)
        for step in steps:
            if step[0] == "write":
                pod.update_file(step[1], step[2])
            elif step[1] < len(policies):
                try:
                    pod.rotate_key(policies[step[1]])
                except PolicyError:
                    continue
            self.check(pod, patterns)


class TestConcurrentReaders:
    def test_readers_never_see_torn_state(self):
        # every quad is readable only through the key map built with it, so a
        # reader pairing one version's quads with the other's map gets nothing
        open_policy = AccessPolicy(id="all-pub", subject_group=SubjectGroup(OWNER, TIER_EVERYONE),
                                   effect=PERMIT, file_uri=FILE)
        versions = [(NAME_Q,), (TEL_Q, OTHER_Q)]
        pod = make_pod(policies=[open_policy], files={FILE: versions[0]})
        answers = [set(v) for v in versions]
        bad, reads, stop = [], [0], threading.Event()

        def reader():
            while not stop.is_set():
                result = pod.execute_query(None, ALL, FILE)
                reads[0] += 1
                if result not in answers:
                    bad.append(result)

        def writer():
            for i in range(1000):
                pod.update_file(FILE, versions[i % 2 - 1])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=reader) for _ in range(3)]
            for t in readers:
                t.start()
            w = threading.Thread(target=writer)
            w.start()
            w.join(timeout=60)
            stop.set()
            for t in readers:
                t.join(timeout=10)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not w.is_alive() and not any(t.is_alive() for t in readers)
        assert reads[0] > 0
        assert not bad, bad[:3]
