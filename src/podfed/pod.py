"""A simulated personal data pod.

Holds files of quads under the owner's access policies, publishes a
privacy-preserving summary per file, and enforces the policies quad by
quad when executing queries. Identity verification is a token-equality
check against a registry, standing in for real WebID authentication;
anonymous clients are allowed and match only the everyone tier.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .policy import (
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
    """A file snapshot plus its derived summary; replaced wholesale on write."""

    uri: str
    quads: tuple[Quad, ...]
    summary: Summary


@dataclass(frozen=True)
class ChangeNotification:
    """Sent to aggregators when a file's contents (and summary) changed."""

    pod_owner: str
    file_uri: str


ChangeListener = Callable[[ChangeNotification], None]


@dataclass(frozen=True)
class _PodState:
    """Every file plus the key map derived from them, swapped as one object
    so a reader never pairs one generation's quads with another's keys."""

    files: Mapping[str, PodFile]
    key_map: PolicyKeyMap


class Pod:
    """Access-controlled quad file store with per-file summaries.

    Reads (execute_query, get_file_summary) see a consistent snapshot;
    update_file swaps files, key map and summaries in one assignment under
    a lock.
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
        for policy in policies:
            if policy.file_uri not in files:
                raise ValueError(
                    f"policy {policy.id!r} references unknown file {policy.file_uri!r}"
                )
        self.owner_webid = owner_webid
        self.policies = tuple(policies)
        self.identity_registry = dict(identity_registry)
        self.keystore = keystore
        self.params = params
        self.conflict_strategy = conflict_strategy
        self.filter_cls = filter_cls
        self._lock = threading.Lock()
        self._listeners: list[ChangeListener] = []
        self._state = _PodState({}, PolicyKeyMap({}))
        self._rebuild({uri: tuple(quads) for uri, quads in files.items()})

    # --- construction / maintenance ---------------------------------------

    def _rebuild(self, contents: dict[str, tuple[Quad, ...]], written: str | None = None):
        """Recompute the key map, then summarise the ``written`` file again,
        and every other file whose quads the new key map gives other
        (policy, key) pairs; the rest keep their summaries.

        Files other than ``written`` must have the quads they had before."""
        key_map = create_access_keys(contents, self.policies, self.keystore)
        uncovered = [q for q in key_map.quads() if not key_map.permit_keys_for(q)]
        if uncovered:
            logger.warning(
                "pod %s: %d quad(s) covered by no permit policy; they are "
                "stored but inaccessible and left out of summaries",
                self.owner_webid,
                len(uncovered),
            )
        previous = self._state
        files = {}
        for uri, quads in contents.items():
            f = previous.files.get(uri)
            if (
                f is None
                or uri == written
                or any(key_map.pairs_for(q) != previous.key_map.pairs_for(q) for q in quads)
            ):
                summary = create_file_summary(quads, uri, key_map, self.params, self.filter_cls)
                f = PodFile(uri, quads, summary)
            files[uri] = f
        self._state = _PodState(files, key_map)

    def rebuild_access_state(self):
        """Re-derive keys and regenerate the summaries they changed, e.g.
        after key rotation."""
        with self._lock:
            self._rebuild({uri: f.quads for uri, f in self._state.files.items()})

    def add_change_listener(self, listener: ChangeListener):
        self._listeners.append(listener)

    # --- interface --------------------------------------------------------

    @property
    def key_map(self) -> PolicyKeyMap:
        return self._state.key_map

    @property
    def file_uris(self) -> tuple[str, ...]:
        return tuple(self._state.files)

    def file_quads(self, uri: str) -> tuple[Quad, ...]:
        return self._file(uri).quads

    def _file(self, uri: str, state: _PodState | None = None) -> PodFile:
        f = (state or self._state).files.get(uri)
        if f is None:
            raise UnknownFileError(f"pod {self.owner_webid} has no file {uri!r}")
        return f

    def _verified(self, identity: Identity) -> bool:
        return self.identity_registry.get(identity.webid) == identity.token

    def execute_query(
        self, identity: Identity | None, pattern: QuadPattern, file_uri: str
    ) -> set[Quad]:
        """Matching quads the client may read, enforced quad by quad.

        A client that presents credentials which fail verification gets an
        empty result, indistinguishable from a denial.
        """
        state = self._state
        f = self._file(file_uri, state)
        if identity is not None and not self._verified(identity):
            return set()
        return {
            quad
            for quad in f.quads
            if pattern_matches(pattern, quad)
            and allowed_access(
                state.key_map.pairs_for(quad), identity, self.conflict_strategy
            )
        }

    def get_file_summary(self, file_uri: str) -> Summary:
        return self._file(file_uri).summary

    def update_file(self, file_uri: str, quads: Sequence[Quad]) -> ChangeNotification:
        """Replace an existing file's contents atomically and notify
        aggregators.

        The key map and the file's summary are regenerated before readers
        can observe the new quads; other files keep their summaries unless
        the new contents change the (policy, key) pairs of their quads.
        Files cannot be added this way, since no federation routes or
        aggregates them; an unknown URI raises UnknownFileError.
        """
        with self._lock:
            self._file(file_uri)
            contents = {uri: f.quads for uri, f in self._state.files.items()}
            contents[file_uri] = tuple(quads)
            self._rebuild(contents, written=file_uri)
        notification = ChangeNotification(self.owner_webid, file_uri)
        for listener in self._listeners:
            listener(notification)
        return notification
