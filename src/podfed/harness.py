"""Scenario loading and federation wiring.

A scenario is one YAML document describing pods (owner, subject groups,
files as inline quad text, policies), client identities, the aggregator's
source list, and the filter parameters. ``load_scenario`` validates it
with field-path error messages and returns a wired ``Federation``:
pods built, summaries generated, aggregator combined and subscribed to
file-change notifications.
"""

from __future__ import annotations

import importlib.resources
import logging
from pathlib import Path
from typing import Sequence

import yaml

from .aggregator import Aggregator
from .client import QueryResult, SelectionReport, federated_query
from .policy import (
    CONFLICT_STRATEGIES,
    DENY_OVERRIDES,
    PERMIT,
    PROHIBIT,
    TIER_ACQUAINTANCES,
    TIER_EVERYONE,
    TIER_FRIENDS,
    AccessPolicy,
    Identity,
    KeyRing,
    KeyStore,
    SubjectGroup,
    keyring_for,
)
from .pod import Pod, UnknownFileError
from .quads import (
    DEFAULT_GRAPH,
    ParseError,
    Quad,
    QuadPattern,
    Variable,
    blank,
    iri,
    literal,
    parse_quads,
)
from .summary import AmfParams, BloomFilter, DEFAULT_PARAMS, ExactFilter, FilterFactory

logger = logging.getLogger(__name__)

ANONYMOUS = "anonymous"


class ScenarioError(ValueError):
    """Scenario validation failure; the message starts with a field path."""


def _fail(path: str, message: str):
    raise ScenarioError(f"{path}: {message}")


def _require(value, path: str, kind: type, message: str):
    # bool is an int subclass, but `h: true` is no probe count.
    if not isinstance(value, kind) or isinstance(value, bool):
        _fail(path, message)
    return value


def _str_list(value, path: str) -> list[str]:
    value = _require(value, path, list, "expected a list of strings")
    for i, item in enumerate(value):
        _require(item, f"{path}[{i}]", str, "expected a string")
    return value


def bundled_scenario_path(name: str = "addressbook") -> Path:
    """Filesystem path of a scenario shipped with the package."""
    resource = importlib.resources.files("podfed") / "scenarios" / f"{name}.yaml"
    with importlib.resources.as_file(resource) as p:
        return Path(p)


class Federation:
    """All pods of a scenario plus the aggregator and client identities."""

    def __init__(
        self,
        pods: Sequence[Pod],
        identities: dict[str, Identity],
        keystore: KeyStore,
        params: AmfParams,
        sources: Sequence[str],
        filter_cls: FilterFactory = BloomFilter,
    ):
        self.pods = tuple(pods)
        self.identities = dict(identities)
        self.keystore = keystore
        self.params = params
        self.filter_cls = filter_cls
        self._file_to_pod: dict[str, Pod] = {}
        for pod in self.pods:
            for uri in pod.file_uris:
                self._file_to_pod[uri] = pod
        self.policies: tuple[AccessPolicy, ...] = tuple(
            policy for pod in self.pods for policy in pod.policies
        )
        # Tests may wrap this to observe how many pod queries are issued.
        self.query_fn = self._execute
        self.aggregator = Aggregator(
            self._fetch_summary, sources, params, filter_cls=filter_cls
        )
        for pod in self.pods:
            pod.add_change_listener(self._on_change)

    # --- plumbing ----------------------------------------------------------

    def _pod_for(self, file_uri: str) -> Pod:
        pod = self._file_to_pod.get(file_uri)
        if pod is None:
            raise UnknownFileError(f"no pod serves {file_uri!r}")
        return pod

    def _fetch_summary(self, file_uri: str):
        return self._pod_for(file_uri).get_file_summary(file_uri)

    def _execute(
        self, identity: Identity | None, pattern: QuadPattern, file_uri: str
    ) -> set[Quad]:
        return self._pod_for(file_uri).execute_query(identity, pattern, file_uri)

    def _on_change(self, notification):
        _, sources = self.aggregator.snapshot()
        if notification.file_uri in sources:
            self.aggregator.on_source_changed(notification.file_uri)

    # --- client-facing convenience ------------------------------------------

    def identity(self, name: str | None) -> Identity | None:
        """Resolve an identity name; None or "anonymous" means no credentials."""
        if name is None or name == ANONYMOUS:
            return None
        try:
            return self.identities[name]
        except KeyError:
            raise KeyError(f"unknown identity {name!r}") from None

    def keyring(self, name: str | None) -> KeyRing:
        """Current keyring for an identity name, derived from group membership.

        Computed on demand, so a key rotation is picked up immediately.
        """
        return keyring_for(self.identity(name), self.policies, self.keystore)

    def federated_query(
        self, name: str | None, pattern: QuadPattern, parallel: bool = False
    ) -> tuple[QueryResult, SelectionReport]:
        identity = self.identity(name)
        return federated_query(
            identity, self.keyring(name), pattern, self.aggregator, self.query_fn, parallel
        )

    def rotate_key(self, policy_id: str):
        """Revoke a policy's key: new key, the one file it governs rebuilt,
        and the aggregator patched through the pod's change notification.

        Keyrings are derived on demand, so holders of the old key lose
        access as soon as the file's summary is rebuilt.
        """
        for pod in self.pods:
            for policy in pod.policies:
                if policy.id == policy_id:
                    pod.rotate_key(policy)
                    return
        raise KeyError(f"unknown policy {policy_id!r}")

    # --- dumps ---------------------------------------------------------------

    def dump_file_summary(self, file_uri: str) -> bytes:
        return self._pod_for(file_uri).get_file_summary(file_uri).to_bytes()

    def dump_component_filter(self, file_uri: str, component: str) -> bytes:
        summary = self._pod_for(file_uri).get_file_summary(file_uri)
        return summary.component(component).to_bytes()

    def dump_combined_summary(self) -> bytes:
        combined, _ = self.aggregator.snapshot()
        return combined.to_bytes()


def parse_pattern_text(text: str) -> QuadPattern:
    """Parse the CLI's four-token pattern syntax.

    Tokens: ``?name`` variable, ``<iri>`` IRI, ``"text"`` literal,
    ``_:label`` blank node, and ``_`` (graph position only) for the
    default graph.
    """
    tokens = text.split()
    if len(tokens) != 4:
        raise ValueError(f"pattern needs 4 whitespace-separated terms, got {len(tokens)}")
    positions = ("subject", "predicate", "object", "graph")
    parts = []
    for position, token in zip(positions, tokens):
        if token.startswith("?") and len(token) > 1:
            parts.append(Variable(token[1:]))
        elif token.startswith("<") and token.endswith(">") and len(token) > 2:
            parts.append(iri(token[1:-1]))
        elif token.startswith('"') and token.endswith('"') and len(token) >= 2:
            parts.append(literal(token[1:-1]))
        elif token.startswith("_:") and len(token) > 2:
            parts.append(blank(token[2:]))
        elif token == "_":
            if position != "graph":
                raise ValueError("'_' is only valid in the graph position")
            parts.append(DEFAULT_GRAPH)
        else:
            raise ValueError(f"cannot parse pattern term {token!r} ({position})")
    return QuadPattern(*parts)


def _load_params(doc: dict) -> AmfParams:
    raw = doc.get("params")
    if raw is None:
        return DEFAULT_PARAMS
    raw = _require(raw, "params", dict, "expected a mapping with m and h")
    m = _require(raw.get("m", DEFAULT_PARAMS.m), "params.m", int, "expected an integer")
    h = _require(raw.get("h", DEFAULT_PARAMS.h), "params.h", int, "expected an integer")
    unknown = set(raw) - {"m", "h"}
    if unknown:
        _fail("params", f"unknown field(s) {sorted(unknown)}")
    try:
        return AmfParams(m=m, h=h)
    except ValueError as exc:
        _fail("params", str(exc))


def _load_groups(owner: str, raw, path: str) -> dict[str, SubjectGroup]:
    raw = raw or {}
    raw = _require(raw, path, dict, "expected a mapping of tier to member list")
    unknown = set(raw) - {TIER_FRIENDS, TIER_ACQUAINTANCES}
    if unknown:
        _fail(path, f"unknown group tier(s) {sorted(unknown)}")
    friends = set(_str_list(raw.get(TIER_FRIENDS, []), f"{path}.{TIER_FRIENDS}"))
    acquaintances = set(
        _str_list(raw.get(TIER_ACQUAINTANCES, []), f"{path}.{TIER_ACQUAINTANCES}")
    )
    stray = friends - acquaintances
    if stray:
        _fail(
            f"{path}.{TIER_FRIENDS}",
            f"friends must also be acquaintances; missing {sorted(stray)}",
        )
    return {
        TIER_EVERYONE: SubjectGroup(owner, TIER_EVERYONE),
        TIER_ACQUAINTANCES: SubjectGroup(owner, TIER_ACQUAINTANCES, frozenset(acquaintances)),
        TIER_FRIENDS: SubjectGroup(owner, TIER_FRIENDS, frozenset(friends)),
    }


def _load_files(raw, path: str) -> dict[str, tuple[Quad, ...]]:
    raw = raw or {}
    raw = _require(raw, path, dict, "expected a mapping of file URI to quad text")
    files: dict[str, tuple[Quad, ...]] = {}
    for uri, body in raw.items():
        _require(uri, path, str, "file URIs must be strings")
        if not uri:
            _fail(path, "file URIs must be non-empty")
        body = _require(body, f"{path}[{uri}]", str, "expected quad text")
        try:
            files[uri] = tuple(parse_quads(body))
        except ParseError as exc:
            _fail(f"{path}[{uri}]", str(exc))
    return files


def _load_policies(
    raw, groups: dict[str, SubjectGroup], files: dict, path: str
) -> list[AccessPolicy]:
    raw = raw or []
    raw = _require(raw, path, list, "expected a list of policies")
    policies = []
    for i, entry in enumerate(raw):
        p = f"{path}[{i}]"
        entry = _require(entry, p, dict, "expected a policy mapping")
        unknown = set(entry) - {"id", "tier", "effect", "file", "predicates"}
        if unknown:
            _fail(p, f"unknown field(s) {sorted(unknown)}")
        policy_id = _require(entry.get("id"), f"{p}.id", str, "expected a string id")
        tier = entry.get("tier", TIER_EVERYONE)
        if tier not in groups:
            _fail(f"{p}.tier", f"unknown tier {tier!r}")
        effect = entry.get("effect", PERMIT)
        if effect not in (PERMIT, PROHIBIT):
            _fail(f"{p}.effect", f"expected {PERMIT!r} or {PROHIBIT!r}, got {effect!r}")
        file_uri = _require(entry.get("file"), f"{p}.file", str, "expected a file URI")
        if file_uri not in files:
            _fail(f"{p}.file", f"references undeclared file {file_uri!r}")
        predicates = frozenset(_str_list(entry.get("predicates", []), f"{p}.predicates"))
        policies.append(
            AccessPolicy(
                id=policy_id,
                subject_group=groups[tier],
                effect=effect,
                file_uri=file_uri,
                predicates=predicates,
            )
        )
    return policies


def load_scenario(
    path: str | Path,
    seed: int | None = None,
    fixed_keys: bool = False,
    exact: bool = False,
    conflict_strategy: str = DENY_OVERRIDES,
) -> Federation:
    """Load, validate, and wire a federation from a scenario document.

    ``fixed_keys`` derives policy keys deterministically from ``seed`` for
    reproducible summaries; the default is fresh random keys. ``exact``
    swaps the probabilistic filters for exact set membership, which is
    useful when a test needs a guaranteed-zero false positive rate.
    """
    if conflict_strategy not in CONFLICT_STRATEGIES:
        raise ValueError(f"unknown conflict strategy {conflict_strategy!r}")
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"document: not valid YAML: {exc}") from None
    if doc is None:
        doc = {}
    doc = _require(doc, "document", dict, "expected a mapping at the top level")
    unknown = set(doc) - {"params", "pods", "identities", "aggregator"}
    if unknown:
        _fail("document", f"unknown field(s) {sorted(unknown)}")

    params = _load_params(doc)
    filter_cls: FilterFactory = ExactFilter if exact else BloomFilter
    keystore = KeyStore(fixed_seed=(seed or 0) if fixed_keys else None)

    identities: dict[str, Identity] = {}
    named: dict[str, str] = {}  # webid -> identity name
    raw_ids = _require(
        doc.get("identities") or {}, "identities", dict, "expected a mapping"
    )
    for name, entry in raw_ids.items():
        p = f"identities[{name}]"
        _require(name, "identities", str, "identity names must be strings")
        if name == ANONYMOUS:
            _fail(p, f"{ANONYMOUS!r} is reserved for unauthenticated clients")
        entry = _require(entry, p, dict, "expected a mapping with webid and token")
        webid = _require(entry.get("webid"), f"{p}.webid", str, "expected a string")
        if not webid:
            _fail(f"{p}.webid", "expected a non-empty string")
        if webid in named:
            _fail(f"{p}.webid", f"webid {webid!r} is already used by identity {named[webid]!r}")
        named[webid] = name
        token = _require(entry.get("token", ""), f"{p}.token", str, "expected a string")
        identities[name] = Identity(webid=webid, token=token)
    registry = {ident.webid: ident.token for ident in identities.values()}

    pods: list[Pod] = []
    seen_files: set[str] = set()
    seen_policies: set[str] = set()
    raw_pods = _require(doc.get("pods") or [], "pods", list, "expected a list of pods")
    for i, entry in enumerate(raw_pods):
        p = f"pods[{i}]"
        entry = _require(entry, p, dict, "expected a pod mapping")
        unknown = set(entry) - {"owner", "groups", "files", "policies"}
        if unknown:
            _fail(p, f"unknown field(s) {sorted(unknown)}")
        owner = _require(entry.get("owner"), f"{p}.owner", str, "expected a webid string")
        groups = _load_groups(owner, entry.get("groups"), f"{p}.groups")
        files = _load_files(entry.get("files"), f"{p}.files")
        for uri in files:
            if uri in seen_files:
                _fail(f"{p}.files", f"file {uri!r} is declared twice")
            seen_files.add(uri)
        policies = _load_policies(entry.get("policies"), groups, files, f"{p}.policies")
        for policy in policies:
            if policy.id in seen_policies:
                _fail(f"{p}.policies", f"policy id {policy.id!r} is declared twice")
            seen_policies.add(policy.id)
        pods.append(
            Pod(
                owner_webid=owner,
                files=files,
                policies=policies,
                identity_registry=registry,
                keystore=keystore,
                params=params,
                conflict_strategy=conflict_strategy,
                filter_cls=filter_cls,
            )
        )

    raw_agg = _require(
        doc.get("aggregator") or {}, "aggregator", dict, "expected a mapping"
    )
    unknown = set(raw_agg) - {"sources"}
    if unknown:
        _fail("aggregator", f"unknown field(s) {sorted(unknown)}")
    sources = _str_list(raw_agg.get("sources", []), "aggregator.sources")
    for j, uri in enumerate(sources):
        if uri not in seen_files:
            _fail(f"aggregator.sources[{j}]", f"references undeclared file {uri!r}")

    return Federation(
        pods=pods,
        identities=identities,
        keystore=keystore,
        params=params,
        sources=sources,
        filter_cls=filter_cls,
    )
