"""A simulated personal data pod.

Holds files of quads under the owner's access policies, publishes a
privacy-preserving summary per file, and enforces the policies once per
predicate when executing queries. Each policy names one file and governs
only that file's quads, so every file carries its own key map and summary
and a write or a key rotation rebuilds only the file it touches. Identity
verification is a token-equality check against a registry, standing in
for real WebID authentication; anonymous clients are allowed and match
only the everyone tier.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

from .policy import (
    CONFLICT_STRATEGIES,
    DENY_OVERRIDES,
    AccessPolicy,
    Identity,
    KeyStore,
    PolicyKeyMap,
    allowed_access,
    create_access_keys,
)
from .quads import Quad, QuadPattern, pattern_matches
from .summary import (
    AmfParams,
    DEFAULT_PARAMS,
    BloomFilter,
    FilterFactory,
    Summary,
    create_file_summary,
)

logger = logging.getLogger(__name__)


class UnknownFileError(LookupError):
    """The requested file URI does not exist in this pod.

    Distinct from an empty (but authorized) query result so clients cannot
    misread a missing file as an access denial.
    """


@dataclass(frozen=True)
class PodFile:
    """A file snapshot with the key map of its own policies and the summary
    built from both; replaced wholesale on write, so a reader never pairs
    one version's quads with another version's keys."""

    uri: str
    quads: tuple[Quad, ...]
    key_map: PolicyKeyMap
    summary: Summary


@dataclass(frozen=True)
class ChangeNotification:
    """Sent to aggregators when a file's contents (and summary) changed."""

    pod_owner: str
    file_uri: str


ChangeListener = Callable[[ChangeNotification], None]


@dataclass(frozen=True)
class _PodState:
    """Every file of the pod, swapped as one object on each write."""

    files: Mapping[str, PodFile]

    @cached_property
    def key_map(self) -> PolicyKeyMap:
        """Per-predicate union of the files' key maps, built on first use."""
        entries: dict[str, frozenset] = {}
        for f in self.files.values():
            for predicate, pairs in f.key_map.entries.items():
                entries[predicate] = entries.get(predicate, frozenset()) | pairs
        quads = dict.fromkeys(q for f in self.files.values() for q in f.quads)
        return PolicyKeyMap(entries, tuple(quads))


class Pod:
    """Access-controlled quad file store with per-file summaries.

    Each file is its own unit of access state: its policies, key map and
    summary. Reads (execute_query, get_file_summary) see a consistent
    snapshot; a write rebuilds the one file it touches and swaps it in
    under a lock.
    """

    def __init__(
        self,
        owner_webid: str,
        files: Mapping[str, Sequence[Quad]],
        policies: Sequence[AccessPolicy],
        identity_registry: Mapping[str, str],
        keystore: KeyStore,
        params: AmfParams = DEFAULT_PARAMS,
        conflict_strategy: str = DENY_OVERRIDES,
        filter_cls: FilterFactory = BloomFilter,
    ):
        if conflict_strategy not in CONFLICT_STRATEGIES:
            raise ValueError(f"unknown conflict strategy {conflict_strategy!r}")
        self._policies_by_file: dict[str, list[AccessPolicy]] = {uri: [] for uri in files}
        for policy in policies:
            if policy.file_uri not in files:
                raise ValueError(
                    f"policy {policy.id!r} references unknown file {policy.file_uri!r}"
                )
            self._policies_by_file[policy.file_uri].append(policy)
        self.owner_webid = owner_webid
        self.policies = tuple(policies)
        self.identity_registry = dict(identity_registry)
        self.keystore = keystore
        self.params = params
        self.conflict_strategy = conflict_strategy
        self.filter_cls = filter_cls
        self._lock = threading.Lock()
        self._listeners: list[ChangeListener] = []
        self._state = _PodState({uri: self._build(uri, tuple(q)) for uri, q in files.items()})

    # --- construction / maintenance ---------------------------------------

    def _build(self, uri: str, quads: tuple[Quad, ...]) -> PodFile:
        """Key and summarise one file under its own policies."""
        key_map = create_access_keys(uri, quads, self._policies_by_file[uri], self.keystore)
        uncovered = sum(not key_map.permit_keys_for(q) for q in key_map.quads())
        if uncovered:
            logger.warning(
                "pod %s, file %s: %d quad(s) covered by no permit policy; they "
                "are stored but inaccessible and left out of summaries",
                self.owner_webid, uri, uncovered,
            )
        summary = create_file_summary(quads, uri, key_map, self.params, self.filter_cls)
        return PodFile(uri, quads, key_map, summary)

    def _rebuild(self, file_uri: str, quads: tuple[Quad, ...] | None = None) -> ChangeNotification:
        """Rebuild one existing file (with new ``quads``, or its current ones
        under fresh keys), swap it in and notify the listeners."""
        with self._lock:
            files = dict(self._state.files)
            current = self.file(file_uri)
            files[file_uri] = self._build(file_uri, current.quads if quads is None else quads)
            self._state = _PodState(files)
        notification = ChangeNotification(self.owner_webid, file_uri)
        for listener in self._listeners:
            listener(notification)
        return notification

    def rotate_key(self, policy: AccessPolicy) -> ChangeNotification:
        """Revoke one of this pod's policies' key: issue a fresh one, then
        rebuild and announce the one file the policy governs."""
        if policy not in self.policies:
            raise KeyError(f"pod {self.owner_webid} has no policy {policy.id!r}")
        self.keystore.rotate(policy)
        return self._rebuild(policy.file_uri)

    def add_change_listener(self, listener: ChangeListener):
        self._listeners.append(listener)

    # --- interface --------------------------------------------------------

    @property
    def key_map(self) -> PolicyKeyMap:
        """Every file's pairs merged per predicate, for inspection only: access
        decisions and summaries use each file's own ``PodFile.key_map``."""
        return self._state.key_map

    @property
    def file_uris(self) -> tuple[str, ...]:
        return tuple(self._state.files)

    def file(self, uri: str) -> PodFile:
        f = self._state.files.get(uri)
        if f is None:
            raise UnknownFileError(f"pod {self.owner_webid} has no file {uri!r}")
        return f

    def file_quads(self, uri: str) -> tuple[Quad, ...]:
        return self.file(uri).quads

    def _verified(self, identity: Identity) -> bool:
        return self.identity_registry.get(identity.webid) == identity.token

    def execute_query(
        self, identity: Identity | None, pattern: QuadPattern, file_uri: str
    ) -> set[Quad]:
        """Matching quads the client may read under the file's own policies,
        decided once per predicate of the file.

        A client that presents credentials which fail verification gets an
        empty result, indistinguishable from a denial.
        """
        f = self.file(file_uri)
        if identity is not None and not self._verified(identity):
            return set()
        readable = {p for p, pairs in f.key_map.entries.items()
                    if allowed_access(pairs, identity, self.conflict_strategy)}
        return {q for q in f.quads
                if q.predicate.value in readable and pattern_matches(pattern, q)}

    def get_file_summary(self, file_uri: str) -> Summary:
        return self.file(file_uri).summary

    def update_file(self, file_uri: str, quads: Sequence[Quad]) -> ChangeNotification:
        """Replace an existing file's contents atomically and notify
        aggregators.

        The file's key map and summary are rebuilt before readers can
        observe the new quads; no other file is touched. Files cannot be
        added this way, since no federation routes or aggregates them; an
        unknown URI raises UnknownFileError.
        """
        return self._rebuild(file_uri, tuple(quads))
