"""In-memory span tracing for the benchmark's traced runs.

The tracer wraps podfed's public functions at the name their caller looks
up (``podfed.client.summary_contains``, ``podfed.pod.allowed_access``, ...)
and undoes every wrap on ``uninstall``. Coarse layer boundaries record
spans; hot functions called thousands of times per operation only bump
counters, so tracing stays cheap enough to compare with an untraced run.

A span is ``[id, parent id, operation id, name, start, end]``. Spans and
counters are recorded only while an operation is open (``begin``/``end``),
so the benchmark's own correctness checks are never traced.
"""

from __future__ import annotations

import time
from collections import defaultdict

import podfed.aggregator
import podfed.client
import podfed.harness
import podfed.pod
import podfed.summary
from podfed.summary import ANY_SOURCE

# (module, attribute the caller looks up, span name)
SPANNED = (
    (podfed.harness, "parse_quads", "quads.parse"),
    (podfed.harness, "Pod", "pod.init"),
    (podfed.pod, "create_access_keys", "policy.create_access_keys"),
    (podfed.pod, "create_file_summary", "summary.create_file_summary"),
    (podfed.harness, "Aggregator", "aggregator.init"),
    (podfed.aggregator, "create_aggregated_summary", "aggregator.recombine"),
    (podfed.harness, "keyring_for", "policy.keyring"),
    (podfed.client, "select_sources", "client.select"),
    (podfed.client, "query_sources", "client.query_sources"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.fetched: list = []
        self.op_id: int | None = None
        self.op_kind: str | None = None
        self.kinds: dict[int, str] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------------

    def begin(self, op_id: int, kind: str):
        self.op_id, self.op_kind = op_id, kind
        self.kinds[op_id] = kind

    def end(self):
        self.op_id = self.op_kind = None

    def start(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, self.op_id, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def finish(self, sid: int):
        self.spans[sid][5] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1):
        self.counts[(self.op_kind, name)] += value

    # --- wrapping ----------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _spanned(self, fn, name: str, on_result=None):
        def wrapper(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            sid = self.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(sid)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _counted(self, fn, name: str):
        def wrapper(*args, **kwargs):
            if self.op_kind is not None:
                self.counts[(self.op_kind, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap the module-level layer entry points (before set-up)."""
        results = {
            "quads.parse": lambda args, quads: self.count("quads.quads_parsed", len(quads)),
            "summary.create_file_summary": lambda args, s: self.count("pod.summaries_rebuilt"),
        }
        for module, attr, name in SPANNED:
            self._patch(module, attr, self._spanned(getattr(module, attr), name, results.get(name)))
        self._patch(podfed.summary, "encode_element",
                    self._counted(podfed.summary.encode_element, "summary.digests_hashed"))
        self._patch(podfed.pod, "allowed_access",
                    self._counted(podfed.pod.allowed_access, "policy.allowed_access_calls"))

        contains = podfed.client.summary_contains

        def probe(f, term, key, source_uri):
            if self.op_kind is not None:
                name = "client.global_probes" if source_uri == ANY_SOURCE else "client.source_probes"
                self.counts[(self.op_kind, name)] += 1
            return contains(f, term, key, source_uri)

        self._patch(podfed.client, "summary_contains", probe)

        combine = podfed.aggregator.summary_combine

        def timed_combine(a, b):
            if self.op_kind is None:
                return combine(a, b)
            started = time.perf_counter()
            try:
                return combine(a, b)
            finally:
                self.count("summary.combine_s", time.perf_counter() - started)
                self.count("summary.combine_calls")

        self._patch(podfed.aggregator, "summary_combine", timed_combine)

        get_summary = podfed.pod.Pod.get_file_summary

        def fetch(pod, uri):
            summary = get_summary(pod, uri)
            if self.op_kind is not None:
                self.count("aggregator.fetches")
            if self.op_kind == "update":
                self.fetched.append(summary)
            return summary

        self._patch(podfed.pod.Pod, "get_file_summary", fetch)

    def install_federation(self, fed):
        """Wrap the federation's pod-query hook (after set-up)."""
        pod_of = {uri: pod for pod in fed.pods for uri in pod.file_uris}

        def scanned(args, result):
            self.count("pod.quads_scanned", len(pod_of[args[2]].file_quads(args[2])))

        self._patch(fed, "query_fn", self._spanned(fed.query_fn, "pod.execute_query", scanned))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- analysis ------------------------------------------------------------------

    def self_times(self) -> dict[str, dict[str, float]]:
        """op kind -> span name -> summed self time in seconds."""
        child_time = defaultdict(float)
        for sid, parent, op_id, name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, parent, op_id, name, start, end in self.spans:
            out[self.kinds[op_id]][name] += (end - start) - child_time[sid]
        return out

    def span_records(self) -> list[dict]:
        return [
            {"id": sid, "parent": parent, "op": op_id, "kind": self.kinds[op_id],
             "name": name, "start": start, "end": end}
            for sid, parent, op_id, name, start, end in self.spans
        ]
