"""Seeded synthetic federations for the podfed benchmark.

``generate(spec, seed)`` returns the text of a scenario YAML document and of
a JSON operation list. Both are pure functions of (spec, seed): the same
arguments give byte-identical text. Only ``random.Random(seed)`` supplies
randomness, and every collection is emitted in a fixed order.

Shape of a generated federation:

* ``pods`` pods with ``files_per_pod`` files of ``quads_per_file`` quads.
* Predicate ``k`` of the vocabulary belongs to tier ``k % 3``: everyone,
  acquaintances, friends. Each file gets one permit policy per tier, listing
  the predicates of that tier used in the file, so every quad is covered by
  exactly one permit policy and summarised under exactly one key.
  ``prohibit_friends`` adds a fourth policy per file that denies friends the
  file's first friends-tier predicate: the summary still advertises it under
  the friends key, so such pod queries come back empty.
* Client ``c<k>`` holds ``t`` pod memberships, ``t`` spread evenly over
  ``ring_memberships`` across the clients: it is an acquaintance of
  ``t - t // 3`` pods and a friend of ``t // 3`` of those, so its keyring
  holds ``1 + files_per_pod * t`` keys. Ring sizes do not depend on the
  seed, so every seed sees the same mix of keyring sizes.
* A planted term is added to ``planted_sources`` files under their
  acquaintances key; client ``planted`` is an acquaintance of exactly those
  pods (plus ``planted_extra_pods`` others). This is the case where one
  ground term is held under one restricted key in a few sources.

The operation list interleaves queries and ``update`` operations. Query
classes follow ``query_cycle`` in order; identities, the predicates of
predicate queries and the graphs of graph queries take turns, so the cost
mix is the same for every seed; the seed picks the terms, pods and files.
An update replaces a file's whole contents (some quads removed, some added),
so replaying the list from the start is always valid.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass

DEFAULT_GRAPH_TOKEN = "_"
TIERS = ("everyone", "acquaintances", "friends")
# Share of operations, drawn from the seed, whose answers the driver checks
# against the oracle (outside the timed region).
CHECK_SHARE = 0.25


@dataclass(frozen=True)
class Spec:
    """Generator parameters of one workload."""

    pods: int
    files_per_pod: int
    quads_per_file: int
    predicates: int
    m: int
    h: int
    identities: int
    ring_memberships: tuple[int, int]
    planted_sources: int
    planted_extra_pods: int
    planted_position: str
    named_graphs: int
    shared_object_share: float
    query_cycle: tuple[str, ...]
    queries_per_update: int
    quads_changed_per_update: int
    operations: int
    prohibit_friends: bool = False

    @property
    def sources(self) -> int:
        return self.pods * self.files_per_pod

    def memberships(self) -> list[int]:
        """Pod memberships of each regular client."""
        lo, hi = self.ring_memberships
        n = self.identities
        return [lo + (hi - lo) * k // max(1, n - 1) for k in range(n)]

    def ring_sizes(self) -> list[int]:
        """Keyring size (PUBLIC included) of each regular client."""
        return [1 + self.files_per_pod * t for t in self.memberships()]

    def planted_ring_size(self) -> int:
        return 1 + self.files_per_pod * (self.planted_sources + self.planted_extra_pods)

    def describe(self) -> dict:
        """Parameters as recorded next to the workload's results."""
        out = asdict(self)
        sizes = self.ring_sizes()
        out["sources"] = self.sources
        out["keyring_size_range"] = [min(sizes), max(sizes)]
        out["planted_keyring_size"] = self.planted_ring_size()
        return out


def _pred(k: int) -> str:
    return f"urn:bench:p{k:02d}"


def _nq_literal(value: str) -> str:
    return f'"{value}"'


class _Builder:
    def __init__(self, spec: Spec, seed: int):
        self.spec = spec
        self.rng = random.Random(seed)
        self.token = f"{self.rng.getrandbits(32):08x}"
        self.pod_bases = [f"https://p{i:04d}.bench.example/" for i in range(spec.pods)]
        self.files = [
            f"{base}f{j}" for base in self.pod_bases for j in range(spec.files_per_pod)
        ]
        self.graphs = [f"urn:bench:g{g}" for g in range(spec.named_graphs)]
        self.graph_cum_weights = [g * (g + 1) // 2 for g in range(1, spec.named_graphs + 1)]
        per_file_shared = spec.quads_per_file * spec.shared_object_share
        # About two occurrences per shared value, so a shared object lives in 0-3 files.
        self.shared_pool = max(1, int(len(self.files) * per_file_shared / 2))
        self.fresh = 0
        # query class -> queries of that class generated so far
        self.class_turns: dict[str, int] = {}
        # file uri -> list of (subject, predicate index, object token, graph token)
        self.contents: dict[str, list[tuple[str, int, str, str]]] = {}
        self.listed: dict[str, list[int]] = {}
        self.planted_term = f"planted-{self.token}"
        self.planted_graph = f"urn:bench:planted-{self.token}"

    # --- data ---------------------------------------------------------------

    def _quad(self, uri: str, slot: int) -> tuple[str, int, str, str]:
        spec, rng = self.spec, self.rng
        subjects = max(1, spec.quads_per_file // 4)
        subject = f"{uri}#e{rng.randrange(subjects)}"
        # Round-robin tiers keep every tier present in every file. Updates
        # draw only predicates the file's policies already list.
        tier = slot % 3
        listed = self.listed.get(uri)
        choices = [p for p in listed if p % 3 == tier] if listed else range(tier, spec.predicates, 3)
        pred = rng.choice(choices)
        if rng.random() < spec.shared_object_share:
            obj = _nq_literal(f"s{rng.randrange(self.shared_pool)}")
        else:
            self.fresh += 1
            obj = _nq_literal(f"v{self.fresh}")
        # Graph g holds a share of quads proportional to g + 1, so graph
        # queries range in cost instead of forming one narrow cluster.
        graph = (f"<{rng.choices(self.graphs, cum_weights=self.graph_cum_weights)[0]}>"
                 if self.graphs else DEFAULT_GRAPH_TOKEN)
        return subject, pred, obj, graph

    def build_contents(self):
        for uri in self.files:
            self.contents[uri] = [
                self._quad(uri, slot) for slot in range(self.spec.quads_per_file)
            ]
        # Plant under the acquaintances key (tier 1) of the first tier-1 predicate.
        planted_pods = self.rng.sample(range(self.spec.pods), self.spec.planted_sources)
        self.planted_files = []
        for i in sorted(planted_pods):
            uri = f"{self.pod_bases[i]}f{self.rng.randrange(self.spec.files_per_pod)}"
            self.planted_files.append(uri)
            if self.spec.planted_position == "graph":
                quad = (f"{uri}#planted", 1, _nq_literal(self.planted_term), f"<{self.planted_graph}>")
            else:
                graph = f"<{self.graphs[0]}>" if self.graphs else DEFAULT_GRAPH_TOKEN
                quad = (f"{uri}#planted", 1, _nq_literal(self.planted_term), graph)
            self.contents[uri].append(quad)
        self.planted_pods = sorted(planted_pods)
        for uri, quads in self.contents.items():
            self.listed[uri] = sorted({pred for _, pred, _, _ in quads})

    @staticmethod
    def nquads(quads) -> str:
        lines = []
        for subject, pred, obj, graph in quads:
            g = "" if graph == DEFAULT_GRAPH_TOKEN else f" {graph}"
            lines.append(f"<{subject}> <{_pred(pred)}> {obj}{g} .\n")
        return "".join(lines)

    # --- identities -----------------------------------------------------------

    def build_identities(self):
        spec, rng = self.spec, self.rng
        self.clients: list[tuple[str, str, str]] = []  # name, webid, token
        acq = {i: [] for i in range(spec.pods)}
        friends = {i: [] for i in range(spec.pods)}
        for k, t in enumerate(spec.memberships()):
            name, webid = f"c{k:02d}", f"https://c{k:02d}.clients.example/#me"
            self.clients.append((name, webid, f"t{k:02d}"))
            pods = rng.sample(range(spec.pods), t - t // 3)
            for i in pods:
                acq[i].append(webid)
            for i in pods[: t // 3]:
                friends[i].append(webid)
        webid = "https://planted.clients.example/#me"
        self.clients.append(("planted", webid, "tp"))
        others = [i for i in range(spec.pods) if i not in set(self.planted_pods)]
        for i in self.planted_pods + rng.sample(others, spec.planted_extra_pods):
            acq[i].append(webid)
        self.acq, self.friends = acq, friends

    # --- documents --------------------------------------------------------------

    def scenario_yaml(self) -> str:
        spec, q = self.spec, json.dumps
        out = [
            "# Generated by perfbench/workload_gen.py; do not edit.\n",
            f"params:\n  m: {spec.m}\n  h: {spec.h}\n",
            "pods:\n",
        ]
        for i, base in enumerate(self.pod_bases):
            out.append(f"  - owner: {q(base + 'profile#me')}\n")
            if self.acq[i]:
                out.append("    groups:\n")
                out.append(f"      acquaintances: {q(sorted(self.acq[i]))}\n")
                out.append(f"      friends: {q(sorted(self.friends[i]))}\n")
            out.append("    files:\n")
            policies = []
            for j in range(spec.files_per_pod):
                uri = f"{base}f{j}"
                out.append(f"      {q(uri)}: |\n")
                text = self.nquads(self.contents[uri])
                out.extend(f"        {line}\n" for line in text.splitlines())
                used = self.listed[uri]
                for t, tier in enumerate(TIERS):
                    preds = [_pred(p) for p in used if p % 3 == t]
                    policies.append((f"p{i:04d}f{j}{tier[0]}", tier, "permit", uri, preds))
                if spec.prohibit_friends:
                    first = min(p for p in used if p % 3 == 2)
                    policies.append((f"p{i:04d}f{j}x", "friends", "prohibit", uri, [_pred(first)]))
            out.append("    policies:\n")
            for pid, tier, effect, uri, preds in policies:
                out.append(
                    f"      - {{id: {q(pid)}, tier: {tier}, effect: {effect}, "
                    f"file: {q(uri)}, predicates: {q(preds)}}}\n"
                )
        out.append("identities:\n")
        for name, webid, token in self.clients:
            out.append(f"  {name}: {{webid: {q(webid)}, token: {q(token)}}}\n")
        out.append("aggregator:\n  sources:\n")
        out.extend(f"    - {q(uri)}\n" for uri in self.files)
        return "".join(out)

    # --- operations ---------------------------------------------------------------

    def _query(self, kind: str, index: int) -> dict:
        spec, rng = self.spec, self.rng
        regular = self.clients[:-1]
        # Shift the rotation every cycle so each class meets every client.
        turn = index + index // len(spec.query_cycle)
        identity = "planted" if kind == "planted" else regular[turn % len(regular)][0]
        # Predicates and graphs take turns too: which one a query names sets
        # its cost, so the seed must not pick it.
        nth = self.class_turns.get(kind, 0)
        self.class_turns[kind] = nth + 1
        s = p = o = g = None
        if kind in ("subject", "object", "subject-predicate"):
            # Public quads, so the term is readable by every client and the
            # query reaches the per-source probes.
            quads = self.contents[rng.choice(self.files)]
            subject, pred, obj, _ = rng.choice([q for q in quads if q[1] % 3 == 0] or quads)
            if kind == "object":
                o = obj
            else:
                s = f"<{subject}>"
            if kind == "subject-predicate":
                p = f"<{_pred(pred)}>"
        elif kind == "absent":
            o = _nq_literal(f"absent-{rng.getrandbits(40):010x}")
        elif kind == "planted":
            if spec.planted_position == "graph":
                g = f"<{self.planted_graph}>"
            else:
                o = _nq_literal(self.planted_term)
        elif kind == "predicate":
            p = f"<{_pred(nth % spec.predicates)}>"
        elif kind == "graph":
            g = f"<{self.graphs[nth % len(self.graphs)]}>"
        elif kind == "absent-graph":
            g = f"<urn:bench:absent-{rng.getrandbits(40):010x}>"
        elif kind != "all-variable":
            raise ValueError(f"unknown query class {kind!r}")
        tokens = [s or "?s", p or "?p", o or "?o", g or "?g"]
        return {"op": "query", "class": kind, "identity": identity, "pattern": " ".join(tokens)}

    def _update(self) -> dict:
        spec, rng = self.spec, self.rng
        uri = rng.choice(self.files)
        quads = self.contents[uri]
        keep = [i for i, quad in enumerate(quads) if not quad[0].endswith("#planted")]
        drop = set(rng.sample(keep, min(len(keep), spec.quads_changed_per_update)))
        new = [quad for i, quad in enumerate(quads) if i not in drop]
        new += [self._quad(uri, slot) for slot in range(len(drop))]
        self.contents[uri] = new
        return {"op": "update", "file": uri, "nquads": self.nquads(new)}

    def operations(self) -> list[dict]:
        spec, rng = self.spec, self.rng
        ops, queries = [], 0
        while len(ops) < spec.operations:
            if spec.queries_per_update and queries and queries % spec.queries_per_update == 0 \
                    and ops[-1]["op"] == "query":
                ops.append(self._update())
            else:
                kind = spec.query_cycle[queries % len(spec.query_cycle)]
                ops.append(self._query(kind, queries))
                queries += 1
            ops[-1]["check"] = rng.random() < CHECK_SHARE
        return ops


def generate(spec: Spec, seed: int) -> tuple[str, str]:
    """(scenario YAML text, operation list JSON text) for ``spec`` and ``seed``."""
    b = _Builder(spec, seed)
    b.build_contents()
    b.build_identities()
    scenario = b.scenario_yaml()
    ops = b.operations()
    doc = {"planted_files": b.planted_files, "operations": ops}
    return scenario, json.dumps(doc, indent=None, separators=(",", ":")) + "\n"


# Why each workload exists is recorded in BENCHMARK.json as well.
WORKLOADS: dict[str, Spec] = {
    "select-heavy": Spec(
        pods=125, files_per_pod=4, quads_per_file=20, predicates=40, m=2**19, h=11,
        identities=10, ring_memberships=(6, 15), planted_sources=10, planted_extra_pods=2,
        planted_position="object", named_graphs=0, shared_object_share=0.2,
        query_cycle=("subject", "object", "absent", "subject-predicate", "object",
                     "subject", "planted", "object", "absent", "subject"),
        queries_per_update=10, quads_changed_per_update=4, operations=4000,
    ),
    "scan-heavy": Spec(
        pods=4, files_per_pod=4, quads_per_file=1000, predicates=5, m=2**21, h=11,
        identities=8, ring_memberships=(1, 6), planted_sources=4, planted_extra_pods=0,
        planted_position="graph", named_graphs=8, shared_object_share=0.2,
        # Cheap classes take the lowest fifth of ranks, graph queries the
        # middle and all-variable the top fifth, so p50 and p90 each fall
        # inside one class rather than on the edge between two.
        query_cycle=("graph", "predicate", "all-variable", "graph", "predicate",
                     "graph", "absent-graph", "all-variable", "graph", "predicate",
                     "graph", "planted", "all-variable", "graph", "predicate",
                     "graph", "graph", "all-variable", "graph", "predicate"),
        queries_per_update=10, quads_changed_per_update=50, operations=2000,
        prohibit_friends=True,
    ),
    "churn": Spec(
        pods=50, files_per_pod=4, quads_per_file=20, predicates=40, m=2**18, h=11,
        identities=10, ring_memberships=(6, 15), planted_sources=10, planted_extra_pods=2,
        planted_position="object", named_graphs=0, shared_object_share=0.2,
        query_cycle=("subject", "object", "absent", "subject-predicate", "object",
                     "subject", "planted", "object", "absent", "subject"),
        queries_per_update=4, quads_changed_per_update=4, operations=4000,
    ),
}
