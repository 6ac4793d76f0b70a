import re

import pytest

from conftest import ALICE, BOB_PROFILE, CAROL_PROFILE, CONTACTS, VOCAB

from podfed.harness import ScenarioError, load_scenario, parse_pattern_text
from podfed.policy import PUBLIC_KEY
from podfed.quads import DEFAULT_GRAPH, QuadPattern, Variable, blank, iri, literal
from podfed.summary import BloomFilter, ExactFilter


MINIMAL = """
params: {m: 4096, h: 5}
pods:
  - owner: urn:o
    files:
      urn:o:file: |
        <urn:s> <urn:p> "x" .
    policies:
      - {id: open, tier: everyone, effect: permit, file: urn:o:file}
identities:
  owner: {webid: urn:o, token: t}
aggregator:
  sources: [urn:o:file]
"""


def write(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadScenario:
    def test_bundled_addressbook_shape(self, fed):
        assert len(fed.pods) == 3
        assert set(fed.identities) == {"alice", "bob", "carol", "dave"}
        assert {p.id for p in fed.policies} == {"r0", "r1", "r2", "r3", "r4", "r5"}
        assert fed.aggregator.snapshot()[1] == (CONTACTS, BOB_PROFILE, CAROL_PROFILE)
        assert fed.params.m == 131072 and fed.params.h == 11
        assert fed.filter_cls is BloomFilter

    def test_keyrings_follow_group_membership(self, fed):
        by_id = {p.id: p for p in fed.policies}
        k = fed.keystore.generate_key
        assert fed.keyring("alice").keys == {PUBLIC_KEY, k(by_id["r2"]), k(by_id["r4"])}
        assert fed.keyring("bob").keys == {PUBLIC_KEY, k(by_id["r2"])}
        assert fed.keyring("carol").keys == {PUBLIC_KEY, k(by_id["r4"]), k(by_id["r5"])}
        assert fed.keyring("dave").keys == {PUBLIC_KEY}
        assert fed.keyring(None).keys == {PUBLIC_KEY}
        assert fed.keyring("anonymous").keys == {PUBLIC_KEY}

    def test_exact_mode_swaps_filter_class(self, fed_exact):
        assert fed_exact.filter_cls is ExactFilter
        assert isinstance(
            fed_exact.aggregator.snapshot()[0].component("subject"), ExactFilter
        )

    def test_minimal_scenario(self, tmp_path):
        fed = load_scenario(write(tmp_path, MINIMAL))
        result, report = fed.federated_query("owner", parse_pattern_text("?s ?p ?o ?g"))
        assert len(result) == 1
        assert report.selected == ("urn:o:file",)

    def test_empty_scenario_yields_empty_federation(self, tmp_path):
        fed = load_scenario(write(tmp_path, "pods: []\n"))
        assert fed.pods == ()
        result, _ = fed.federated_query(None, parse_pattern_text("?s ?p ?o ?g"))
        assert len(result) == 0

    def test_unknown_identity_rejected(self, fed):
        with pytest.raises(KeyError, match="nobody"):
            fed.federated_query("nobody", parse_pattern_text("?s ?p ?o ?g"))


class TestValidation:
    @pytest.mark.parametrize(
        "text,path_fragment",
        [
            ("- just\n- a list\n", "document:"),
            ("bogus_section: {}\n", "document: unknown field"),
            ("params: {m: 4, h: 5}\n", "params:"),
            ("params: {m: 4096, h: 5, extra: 1}\n", "params: unknown field"),
            ("params: {m: 4096, h: 65}\n", "params: need 1 to 64 hash probes"),
            (
                "pods:\n  - owner: urn:o\n    groups:\n      friends: [urn:a]\n",
                "pods[0].groups.friends",
            ),
            (
                "pods:\n  - owner: urn:o\n    groups:\n      enemies: [urn:a]\n",
                "pods[0].groups: unknown group tier",
            ),
            (
                'pods:\n  - owner: urn:o\n    files:\n      urn:f: "<urn:s> <urn:p>"\n',
                "pods[0].files[urn:f]: line 1",
            ),
            (
                "pods:\n  - owner: urn:o\n    policies:\n"
                "      - {id: p, tier: everyone, effect: permit, file: urn:missing}\n",
                "pods[0].policies[0].file",
            ),
            (
                "pods:\n  - owner: urn:o\n    files: {urn:f: \"<urn:s> <urn:p> <urn:o> .\"}\n"
                "    policies:\n      - {id: p, tier: vips, effect: permit, file: urn:f}\n",
                "pods[0].policies[0].tier",
            ),
            (
                "pods:\n  - owner: urn:o\n    files: {urn:f: \"<urn:s> <urn:p> <urn:o> .\"}\n"
                "    policies:\n      - {id: p, tier: everyone, effect: maybe, file: urn:f}\n",
                "pods[0].policies[0].effect",
            ),
            ("aggregator: {sources: [urn:ghost]}\n", "aggregator.sources[0]"),
            ("identities: {anonymous: {webid: urn:x}}\n", "identities[anonymous]"),
            ("identities: {alice: {webid: 5}}\n", "identities[alice].webid"),
            ("pods:\n  - owner: urn:o\n    unknown_key: 1\n", "pods[0]: unknown field"),
        ],
    )
    def test_field_paths_in_errors(self, tmp_path, text, path_fragment):
        with pytest.raises(ScenarioError, match=re.escape(path_fragment)):
            load_scenario(write(tmp_path, text))

    def test_duplicate_policy_ids_rejected(self, tmp_path):
        text = """
pods:
  - owner: urn:o
    files: {urn:f: "<urn:s> <urn:p> <urn:o> ."}
    policies:
      - {id: dup, tier: everyone, effect: permit, file: urn:f}
      - {id: dup, tier: everyone, effect: permit, file: urn:f}
"""
        with pytest.raises(ScenarioError, match="declared twice"):
            load_scenario(write(tmp_path, text))

    def test_duplicate_file_uris_rejected(self, tmp_path):
        text = """
pods:
  - owner: urn:a
    files: {urn:f: "<urn:s> <urn:p> <urn:o> ."}
  - owner: urn:b
    files: {urn:f: "<urn:s> <urn:p> <urn:o> ."}
"""
        with pytest.raises(ScenarioError, match="declared twice"):
            load_scenario(write(tmp_path, text))

    def test_invalid_yaml_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="not valid YAML"):
            load_scenario(write(tmp_path, "pods: [\n"))


class TestPatternText:
    def test_term_forms(self):
        p = parse_pattern_text('?s <urn:p> "hello" _')
        assert p == QuadPattern(Variable("s"), iri("urn:p"), literal("hello"), DEFAULT_GRAPH)

    def test_blank_node_token(self):
        p = parse_pattern_text("_:b1 ?p ?o ?g")
        assert p.subject == blank("b1")

    @pytest.mark.parametrize(
        "text",
        [
            "?s ?p ?o",  # three terms
            "?s ?p ?o ?g ?x",  # five terms
            "_ ?p ?o ?g",  # default-graph token outside graph position
            "?s ?p ?o junk",  # unparseable token
            '?s ?p "unclosed ?g',
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_pattern_text(text)


class TestRotation:
    def test_rotation_revokes_the_old_key(self, fed):
        r2 = next(p for p in fed.policies if p.id == "r2")
        old_key = fed.keystore.generate_key(r2)
        tel = parse_pattern_text(f"?s <{VOCAB}telephone> ?o ?g")

        before, _ = fed.federated_query("alice", tel)
        assert len(before) == 1

        fed.rotate_key("r2")

        # stale key holders can no longer find the data ...
        from podfed.client import select_sources
        from podfed.policy import KeyRing

        stale_ring = KeyRing(owner=ALICE, keys=frozenset({PUBLIC_KEY, old_key}))
        combined, sources = fed.aggregator.snapshot()
        selected, _ = select_sources(tel, stale_ring, combined, sources)
        assert selected == ()

        # ... while group members pick up the new key transparently
        assert fed.keystore.generate_key(r2) != old_key
        after, _ = fed.federated_query("alice", tel)
        assert {q.object.value for q in after.quads()} == {
            q.object.value for q in before.quads()
        }
        assert fed.aggregator.generation >= 1

    def test_unknown_policy(self, fed):
        with pytest.raises(KeyError, match="r99"):
            fed.rotate_key("r99")


class TestFederationPlumbing:
    def test_update_propagates_to_the_aggregator(self, fed):
        from podfed.quads import Quad

        pod = fed.pods[0]
        new_quads = list(pod.file_quads(CONTACTS)) + [
            Quad(iri(ALICE), iri(f"{VOCAB}knows"), iri("https://dave.pods.org/profile#me"))
        ]
        generation = fed.aggregator.generation
        pod.update_file(CONTACTS, new_quads)
        assert fed.aggregator.generation == generation + 1
        pattern = parse_pattern_text(f"?s <{VOCAB}knows> <https://dave.pods.org/profile#me> ?g")
        result, report = fed.federated_query("dave", pattern)
        assert report.selected == (CONTACTS,)
        assert len(result) == 1

    def test_dumps_are_self_describing(self, fed):
        from podfed.summary import Summary

        combined = Summary.from_bytes(fed.dump_combined_summary())
        assert combined.sources == fed.aggregator.snapshot()[1]

        summary_bytes = fed.dump_file_summary(BOB_PROFILE)
        assert Summary.from_bytes(summary_bytes).sources == (BOB_PROFILE,)

        filter_bytes = fed.dump_component_filter(BOB_PROFILE, "predicate")
        assert filter_bytes[:4] == b"PPFS"

    def test_exact_filters_refuse_to_dump(self, fed_exact):
        for dump in (fed_exact.dump_combined_summary,
                     lambda: fed_exact.dump_file_summary(BOB_PROFILE),
                     lambda: fed_exact.dump_component_filter(BOB_PROFILE, "subject")):
            with pytest.raises(TypeError, match="no binary form"):
                dump()

    def test_queries_about_unserved_files_fail_soft(self, fed):
        from podfed.client import query_sources

        result = query_sources(None, parse_pattern_text("?s ?p ?o ?g"),
                               ["urn:ghost:file"], fed.query_fn)
        assert list(result.failures) == ["urn:ghost:file"]
