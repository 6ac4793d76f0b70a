"""Acceptance suite: eight end-to-end criteria over the bundled scenario.

Each test prints one ``[PASS]``/``[FAIL]`` line (run pytest with ``-s`` to
see them). The brute-force oracle used throughout queries every source
directly through the pods' own enforcement, bypassing summaries, the
aggregator, and source selection entirely.
"""

import random
import time
from contextlib import contextmanager

import pytest

from conftest import ALICE, BOB, BOB_PROFILE, CAROL, CAROL_PROFILE, CONTACTS, VOCAB

from podfed.aggregator import create_aggregated_summary
from podfed.cli import main as cli_main
from podfed.experiments import fpr_experiment, leakage_experiment
from podfed.harness import parse_pattern_text
from podfed.quads import COMPONENTS, Quad, iri
from podfed.summary import (
    ANY_SOURCE,
    AmfParams,
    BloomFilter,
    summary_add,
    summary_combine,
    summary_contains,
)

IDENTITIES = ["alice", "bob", "carol", "dave", None]

PATTERNS = {
    "name": parse_pattern_text(f"?s <{VOCAB}name> ?o ?g"),
    "email": parse_pattern_text(f"?s <{VOCAB}email> ?o ?g"),
    "telephone": parse_pattern_text(f"?s <{VOCAB}telephone> ?o ?g"),
    "knows": parse_pattern_text(f"?s <{VOCAB}knows> ?o ?g"),
    "all-variable": parse_pattern_text("?s ?p ?o ?g"),
}


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {number}. {label}")
        raise
    print(f"[PASS] {number}. {label}")


def brute_force(fed, name, pattern):
    """Query every aggregated source directly; enforcement only, no summaries."""
    identity = fed.identity(name)
    pairs = set()
    for pod in fed.pods:
        for uri in fed.aggregator.snapshot()[1]:
            if uri in pod.file_uris:
                for quad in pod.execute_query(identity, pattern, uri):
                    pairs.add((quad, uri))
    return pairs


def all_inserted_elements(fed):
    """Every (filter, term, key, source) tuple the scenario build inserted."""
    for pod in fed.pods:
        for uri in pod.file_uris:
            summary = pod.get_file_summary(uri)
            for quad in pod.file_quads(uri):
                for key in pod.file(uri).key_map.permit_keys_for(quad):
                    for component in COMPONENTS:
                        yield summary.component(component), quad.component(component), key, uri


def test_criterion_1_scenario_reproduction(fed):
    with criterion(1, "scenario reproduction: federated grid equals direct enforcement"):
        started = time.perf_counter()
        for name in IDENTITIES:
            for pattern in PATTERNS.values():
                result, _ = fed.federated_query(name, pattern)
                assert result.bindings == brute_force(fed, name, pattern), (name, str(pattern))
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"grid took {elapsed:.2f}s"

        def values(name, key):
            result, _ = fed.federated_query(name, PATTERNS[key])
            return {(q.subject.value, q.object.value) for q in result.quads()}

        assert values("alice", "email") == {(BOB, "bob@pods.org"), (CAROL, "carol@pods.org")}
        assert values("dave", "email") == {(BOB, "bob@pods.org")}
        assert values("alice", "telephone") == {(BOB, "+32-486-123456")}
        assert values("dave", "telephone") == set()


def test_criterion_2_no_false_negatives(fed):
    with criterion(2, "no false negatives for any inserted element"):
        checked = 0
        for f, term, key, uri in all_inserted_elements(fed):
            assert summary_contains(f, term, key, uri)
            assert summary_contains(f, term, key, ANY_SOURCE)
            checked += 1
        assert checked > 0


def test_criterion_3_combination_equivalence(fed):
    with criterion(3, "combining summaries equals building from the union"):
        combined, sources = fed.aggregator.snapshot()
        fresh = {name: BloomFilter(fed.params) for name in COMPONENTS}
        for pod in fed.pods:
            for uri in sources:
                if uri not in pod.file_uris:
                    continue
                for quad in pod.file_quads(uri):
                    for key in pod.file(uri).key_map.permit_keys_for(quad):
                        for name in COMPONENTS:
                            summary_add(fresh[name], quad.component(name), key, uri)
        for name in COMPONENTS:
            assert combined.component(name) == fresh[name], f"{name} filter differs"

        # union algebra on random element sets
        params = AmfParams(m=4096, h=5)
        rng = random.Random(2024)

        def build(elements):
            f = BloomFilter(params)
            for value, key in elements:
                summary_add(f, iri(value), key, "urn:acc:src")
            return f

        def randset():
            return [
                (f"urn:acc:{rng.getrandbits(32):08x}", rng.randbytes(4))
                for _ in range(rng.randrange(0, 40))
            ]

        for _ in range(100):
            a, b, c = randset(), randset(), randset()
            fa, fb, fc = build(a), build(b), build(c)
            assert summary_combine(fa, fb) == summary_combine(fb, fa)
            assert summary_combine(summary_combine(fa, fb), fc) == summary_combine(
                fa, summary_combine(fb, fc)
            )
            assert summary_combine(fa, fa) == fa
            assert summary_combine(fa, fb) == build(a + b)


def test_criterion_4_fpr_calibration():
    with criterion(4, "false-positive rate calibrated against the analytic value"):
        report = fpr_experiment(m=16384, h=11, inserts=500, probes=10**6, seed=42)
        assert report.elapsed_seconds < 30.0, f"took {report.elapsed_seconds:.1f}s"
        assert report.expected == pytest.approx(3.82e-4, rel=0.01)
        assert report.within(0.20), (
            f"measured {report.measured:.3e} deviates "
            f"{report.relative_deviation:.1%} from {report.expected:.3e}"
        )


def test_criterion_5_no_data_leaking(fed):
    with criterion(5, "restricted terms stay hidden from wrong keys"):
        report = leakage_experiment(fed, probes=25000, seed=5)
        assert report.total_probes >= 10**5
        assert report.per_term, "scenario must contain restricted terms"
        for t in report.per_term:
            assert t.rate <= t.bound, f"{t.component} {t.term}: {t.rate} > {t.bound}"
            assert t.control_positive, f"{t.component} {t.term}: correct key must match"
        assert report.interface_opaque, report.notes


def test_criterion_6_pruning_soundness(fed_exact):
    with criterion(6, "pruning is sound and prunes exactly the right sources"):
        fed = fed_exact
        queried = []
        inner = fed.query_fn

        def counting(identity, pattern, uri):
            queried.append(uri)
            return inner(identity, pattern, uri)

        fed.query_fn = counting

        # with zero false positives, a pruned source never holds results
        for name in IDENTITIES:
            for pattern in PATTERNS.values():
                _, report = fed.federated_query(name, pattern)
                pruned = set(report.candidates) - set(report.selected)
                if not pruned:
                    continue
                oracle = brute_force(fed, name, pattern)
                for uri in pruned:
                    hits = {q for q, u in oracle if u == uri}
                    assert not hits, f"pruned {uri} had results for {name}"

        queried.clear()
        result, report = fed.federated_query("dave", PATTERNS["telephone"])
        assert queried == [], "a globally pruned query must issue no pod queries"
        assert report.pruned_by_global and len(result) == 0

        queried.clear()
        result, report = fed.federated_query("alice", PATTERNS["email"])
        assert len(report.candidates) == 3
        assert sorted(queried) == [BOB_PROFILE, CAROL_PROFILE]
        assert len(queried) == 2


def test_criterion_7_maintenance_correctness(fed, fed_exact):
    with criterion(7, "updates keep the combined summary consistent"):
        alice_pod = fed.pods[0]
        extra = Quad(iri(ALICE), iri(f"{VOCAB}knows"), iri("https://dave.pods.org/profile#me"))
        alice_pod.update_file(CONTACTS, list(alice_pod.file_quads(CONTACTS)) + [extra])

        combined, sources = fed.aggregator.snapshot()
        assert combined.generation == 1
        rebuilt, _ = create_aggregated_summary(
            sources, fed._fetch_summary, fed.params, fed.filter_cls
        )
        for name in COMPONENTS:
            assert combined.component(name) == rebuilt.component(name), name

        # removed-only terms turn negative, observed with the exact oracle
        exact_pod = fed_exact.pods[0]
        keep = [q for q in exact_pod.file_quads(CONTACTS) if q.object != iri(CAROL)]
        assert len(keep) == 1
        exact_pod.update_file(CONTACTS, keep)
        combined_exact, _ = fed_exact.aggregator.snapshot()
        rings = [fed_exact.keyring(n) for n in ("alice", "bob", "carol", "dave", None)]
        for ring in rings:
            for key in ring.keys:
                assert not summary_contains(
                    combined_exact.component("object"), iri(CAROL), key, ANY_SOURCE
                )


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "fixed keys and seed reproduce byte-identical dumps"):
        outputs = {}
        for run in ("first", "second"):
            base = tmp_path / run
            base.mkdir()
            for fmt, extra in {
                "ppas": [],
                "file": ["--file", BOB_PROFILE],
                "ppfs": ["--file", BOB_PROFILE, "--component", "predicate"],
            }.items():
                out = base / f"dump.{fmt}"
                code = cli_main(
                    ["dump-summary", "--fixed-keys", "--seed", "11", "--out", str(out)] + extra
                )
                assert code == 0
                outputs.setdefault(fmt, []).append(out.read_bytes())
        for fmt, (first, second) in outputs.items():
            assert first == second, f"{fmt} dumps differ between runs"
        assert outputs["ppas"][0][:4] == b"PPAS"
        assert outputs["file"][0][:4] == b"PPAS"
        assert outputs["ppfs"][0][:4] == b"PPFS"


def test_criterion_summary_lines_are_printed():
    # all eight criteria live in this module; pytest -s shows their lines
    names = [n for n in globals() if n.startswith("test_criterion_") and n[15].isdigit()]
    assert len(names) == 8
