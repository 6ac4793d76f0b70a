#!/usr/bin/env python3
"""podfed benchmark: seeded synthetic federations, timed end to end and per layer.

    python3 perfbench/run.py --workload select-heavy --seed 1 --seconds 25 --trace 0

One process, one thread, one client in a closed loop: each operation starts
when the previous one has returned, with no think time, ``parallel=False``
and keys derived from the seed (``fixed_keys``). The run

1. generates the workload's scenario YAML and operation list from ``--seed``
   (``workload_gen.py``) and writes the scenario under ``.perfbench_out/``
   for the length of the run;
2. times ``load_scenario`` on that file ``SETUPS`` times (``setup_s`` is the
   median) and keeps the last federation;
3. replays the operation list through ``Federation.federated_query`` and
   ``Pod.update_file`` until ``--seconds`` of operation time have passed;
4. checks answers outside the timed region: a seeded share of queries
   against a brute-force oracle that asks every source through
   ``Pod.execute_query``, a seeded share of updates (and the final state)
   for a combined summary bit-equal to a from-scratch
   ``create_aggregated_summary``; and checks that no output carries key
   bytes or restricted terms;
5. prints every metric with its unit, writes ``metrics.json`` (and, traced,
   ``trace.json``) and prints the result object as the last line.

With ``--trace 1`` the run sets up once under the tracer, measures the
planted-term query once, then splits ``--seconds`` between an untraced and
a traced replay; it reports the per-layer metrics and the tracing overhead.
The exit code is 0 only when every operation succeeded and every check
passed.
"""

from __future__ import annotations

import argparse
import base64
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUPS = 3

# name -> unit; what a user of the federation sees. Reported untraced.
END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "query_qps": "1/s",
    "update_p50_ms": "ms",
    "update_p90_ms": "ms",
    "pod_queries_per_query": "count",
    "peak_rss_mb": "MB",
}

# name -> unit; one layer each. Reported by the traced run. Per-query and
# per-update values are means over the traced operations.
PER_LAYER = {
    "harness.load_scenario_self_s": "s",
    "quads.parse_s": "s",
    "quads.quads_parsed": "count",
    "policy.create_access_keys_s": "s",
    "policy.create_access_keys_ms_per_update": "ms",
    "policy.keyring_ms": "ms",
    "policy.allowed_access_calls": "count",
    "summary.create_file_summary_s": "s",
    "summary.create_file_summary_ms_per_update": "ms",
    "summary.digests_hashed": "count",
    "summary.digests_hashed_per_update": "count",
    "summary.combine_calls": "count",
    "summary.combine_s": "s",
    "summary.fill_ratio": "ratio",
    "summary.est_fpr": "ratio",
    "aggregator.recombine_ms": "ms",
    "aggregator.fetches_per_update": "count",
    "aggregator.bytes_fetched_per_update": "bytes",
    "client.select_ms": "ms",
    "client.global_probes": "count",
    "client.source_probes": "count",
    "client.global_prune_ratio": "ratio",
    "client.query_sources_ms": "ms",
    "client.wasted_pod_query_ratio": "ratio",
    "client.planted_global_probes": "count",
    "client.planted_source_probes": "count",
    "pod.execute_query_ms": "ms",
    "pod.quads_scanned": "count",
    "pod.update_file_self_ms": "ms",
    "pod.summaries_rebuilt_per_update": "count",
    "trace.query_p50_overhead_ms": "ms",
}


def import_podfed():
    """Import podfed from the checkout's ``src``; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "podfed" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: podfed sources not found under {src}")
    sys.path.insert(0, str(src))
    import podfed

    if Path(podfed.__file__).resolve().parent != src / "podfed":
        raise SystemExit(f"perfbench: imported podfed from {podfed.__file__}, not {src}")
    return podfed


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99), interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# --- privacy guard ----------------------------------------------------------------


def _strings(obj, out: set[str]):
    if isinstance(obj, str):
        out.add(obj)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            _strings(key, out)
            _strings(value, out)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _strings(item, out)


def secrets_of(fed) -> list[str]:
    """Every text form in which a key or a restricted term could leak."""
    from podfed import restricted_terms

    keys = {key for pod in fed.pods for quad in pod.key_map.quads()
            for key in pod.key_map.permit_keys_for(quad) if key}
    forms = []
    for key in keys:
        forms += [key.hex(), base64.b64encode(key).decode(), key.decode("latin-1")]
    for _, term, _ in restricted_terms(fed):
        text = str(term)
        forms += [text, json.dumps(text)[1:-1]]
        if len(term.value) >= 3:
            forms.append(term.value)
    return forms


def find_leaks(outputs, secrets: list[str]) -> list[str]:
    """Secrets that occur in any string (key or value) of ``outputs``.

    Numbers cannot spell a key or a term, so only strings are searched.
    """
    strings: set[str] = set()
    _strings(outputs, strings)
    text = "\n".join(sorted(strings))
    return [s for s in secrets if s in text]


# --- the benchmark ----------------------------------------------------------------


class Bench:
    """One federation under test plus the operation list replayed against it."""

    def __init__(self, podfed, ops: list[dict], planted_files: list[str]):
        self.podfed = podfed
        self.planted_files = planted_files
        self.ops = ops
        self.fed = None
        self.tracer = None
        self.op_seq = 0
        self.attempted = self.failed = self.mismatches = 0
        self.checks = {"queries": 0, "updates": 0}
        self.errors: list[str] = []

    def _parsed(self, op: dict):
        """The op's pattern or new file contents, parsed once, before timing."""
        if "parsed" not in op:
            if op["op"] == "query":
                op["parsed"] = self.podfed.parse_pattern_text(op["pattern"])
            else:
                op["parsed"] = tuple(self.podfed.parse_quads(op["nquads"]))
        return op["parsed"]

    def load(self, path: Path, seed: int) -> float:
        self.fed = None
        gc.collect()
        sid = self._begin("setup")
        started = time.perf_counter()
        try:
            fed = self.podfed.load_scenario(path, seed=seed, fixed_keys=True)
        finally:
            elapsed = time.perf_counter() - started
            self._end(sid)
        self.fed = fed
        self.pod_of = {uri: pod for pod in fed.pods for uri in pod.file_uris}
        return elapsed

    # --- operations -----------------------------------------------------------

    def _begin(self, kind: str) -> int | None:
        self.op_seq += 1
        if self.tracer is None:
            return None
        self.tracer.begin(self.op_seq, kind)
        return self.tracer.start("op." + kind)

    def _end(self, sid: int | None):
        if sid is not None:
            self.tracer.finish(sid)
            self.tracer.end()

    def query(self, op: dict, kind: str = "query"):
        pattern = self._parsed(op)
        sid = self._begin(kind)
        started = time.perf_counter()
        try:
            result, report = self.fed.federated_query(op["identity"], pattern)
        finally:
            elapsed = time.perf_counter() - started
            self._end(sid)
        return elapsed, result, report

    def update(self, op: dict) -> float:
        uri, quads = op["file"], self._parsed(op)
        before = self.fed.aggregator.generation
        sid = self._begin("update")
        started = time.perf_counter()
        try:
            self.pod_of[uri].update_file(uri, quads)
            advanced = self.fed.aggregator.generation > before
        finally:
            elapsed = time.perf_counter() - started
            self._end(sid)
        if not advanced:
            raise RuntimeError(f"aggregator generation did not advance after updating {uri}")
        return elapsed

    # --- correctness ----------------------------------------------------------

    def oracle(self, op: dict) -> frozenset:
        identity = self.fed.identity(op["identity"])
        _, sources = self.fed.aggregator.snapshot()
        return frozenset(
            (quad, uri)
            for uri in sources
            for quad in self.pod_of[uri].execute_query(identity, op["parsed"], uri)
        )

    def check_query(self, op: dict, result) -> bool:
        self.checks["queries"] += 1
        return not result.failures and result.bindings == self.oracle(op)

    def check_combined(self) -> bool:
        self.checks["updates"] += 1
        combined, sources = self.fed.aggregator.snapshot()
        fresh, fresh_sources = self.podfed.create_aggregated_summary(
            sources, lambda uri: self.pod_of[uri].get_file_summary(uri), self.fed.params
        )
        return fresh_sources == sources and all(
            a.bits == b.bits for a, b in zip(combined.filters(), fresh.filters())
        )

    def _mismatch(self, what: str):
        self.mismatches += 1
        if len(self.errors) < 20:
            self.errors.append(f"mismatch: {what}")

    # --- closed loop -----------------------------------------------------------

    def replay(self, seconds: float) -> dict:
        """Run operations in list order until their summed time reaches
        ``seconds`` and at least one query and one update have succeeded.

        The wall-clock cap ends the loop when operations keep failing.
        """
        q_lat, u_lat = [], []
        pod_queries = wasted = pruned = probed = 0
        busy, i = 0.0, 0
        gc.collect()
        deadline = time.perf_counter() + 3 * seconds + 30
        while (busy < seconds or not q_lat or not u_lat) and time.perf_counter() < deadline:
            op = self.ops[i % len(self.ops)]
            i += 1
            self.attempted += 1
            try:
                if op["op"] == "query":
                    elapsed, result, report = self.query(op)
                else:
                    elapsed = self.update(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(f"op {i - 1} ({op['op']}): {exc!r}")
                continue
            busy += elapsed
            if op["op"] == "update":
                u_lat.append(elapsed)
                if op["check"] and not self.check_combined():
                    self._mismatch(f"combined summary after update {i - 1}")
                continue
            q_lat.append(elapsed)
            pod_queries += len(report.selected)
            wasted += len(set(report.selected) - result.sources())
            if report.pattern.ground_components():
                probed += 1
                pruned += report.pruned_by_global
            if (op["check"] or op["class"] == "planted") and not self.check_query(op, result):
                self._mismatch(f"query {i - 1} ({op['class']}) differs from the oracle")
        if u_lat and not self.check_combined():
            self._mismatch("combined summary at the end of the replay")
        return {
            "query_latencies": q_lat,
            "update_latencies": u_lat,
            "pod_queries": pod_queries,
            "wasted_pod_queries": wasted,
            "globally_pruned": pruned,
            "probed_queries": probed,
        }


def end_to_end(setups: list[float], loop: dict) -> dict:
    q, u = loop["query_latencies"], loop["update_latencies"]
    if not q or not u:
        raise RuntimeError("the replay completed no query or no update; raise --seconds")
    return {
        "setup_s": statistics.median(setups),
        "query_p50_ms": 1000 * percentile(q, 50),
        "query_p90_ms": 1000 * percentile(q, 90),
        "query_qps": len(q) / sum(q),
        "update_p50_ms": 1000 * percentile(u, 50),
        "update_p90_ms": 1000 * percentile(u, 90),
        "pod_queries_per_query": loop["pod_queries"] / len(q),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def fill_metrics(fed) -> dict:
    combined, _ = fed.aggregator.snapshot()
    h = combined.params.h
    fills = [f.popcount / f.params.m for f in combined.filters()]
    return {
        "summary.fill_ratio": max(fills),
        "summary.est_fpr": max(x ** h for x in fills),
        "fill_per_component": dict(zip(("subject", "predicate", "object", "graph"), fills)),
    }


def per_layer(tracer, loop: dict, untraced_p50_ms: float) -> dict:
    selfs = tracer.self_times()
    counts = tracer.counts
    n_q = len(loop["query_latencies"])
    n_u = len(loop["update_latencies"])
    setup, query, update = selfs["setup"], selfs["query"], selfs["update"]

    def c(kind, name):
        return counts.get((kind, name), 0)

    fetched_bytes = sum(len(s.to_bytes()) for s in tracer.fetched)
    return {
        "harness.load_scenario_self_s": setup["op.setup"],
        "quads.parse_s": setup["quads.parse"],
        "quads.quads_parsed": c("setup", "quads.quads_parsed"),
        "policy.create_access_keys_s": setup["policy.create_access_keys"],
        "policy.create_access_keys_ms_per_update": 1000 * update["policy.create_access_keys"] / n_u,
        "policy.keyring_ms": 1000 * query["policy.keyring"] / n_q,
        "policy.allowed_access_calls": c("query", "policy.allowed_access_calls") / n_q,
        "summary.create_file_summary_s": setup["summary.create_file_summary"],
        "summary.create_file_summary_ms_per_update": 1000 * update["summary.create_file_summary"] / n_u,
        "summary.digests_hashed": c("setup", "summary.digests_hashed"),
        "summary.digests_hashed_per_update": c("update", "summary.digests_hashed") / n_u,
        "summary.combine_calls": c("update", "summary.combine_calls") / n_u,
        "summary.combine_s": c("update", "summary.combine_s") / n_u,
        "aggregator.recombine_ms": 1000 * update["aggregator.recombine"] / n_u,
        "aggregator.fetches_per_update": c("update", "aggregator.fetches") / n_u,
        "aggregator.bytes_fetched_per_update": fetched_bytes / n_u,
        "client.select_ms": 1000 * query["client.select"] / n_q,
        "client.global_probes": c("query", "client.global_probes") / n_q,
        "client.source_probes": c("query", "client.source_probes") / n_q,
        "client.global_prune_ratio": loop["globally_pruned"] / loop["probed_queries"],
        "client.query_sources_ms": 1000 * query["client.query_sources"] / n_q,
        "client.wasted_pod_query_ratio": loop["wasted_pod_queries"] / loop["pod_queries"],
        "client.planted_global_probes": c("planted", "client.global_probes"),
        "client.planted_source_probes": c("planted", "client.source_probes"),
        "pod.execute_query_ms": 1000 * query["pod.execute_query"] / n_q,
        "pod.quads_scanned": c("query", "pod.quads_scanned") / n_q,
        "pod.update_file_self_ms": 1000 * update["op.update"] / n_u,
        "pod.summaries_rebuilt_per_update": c("update", "pod.summaries_rebuilt") / n_u,
        "trace.query_p50_overhead_ms": 1000 * percentile(loop["query_latencies"], 50)
        - untraced_p50_ms,
    }


def parse_args(argv):
    from workload_gen import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_hash_seed(seed: int):
    """Re-execute with PYTHONHASHSEED set from the workload seed.

    Keyrings are frozensets of bytes, so the order in which selection tries
    keys, and with it every probe count, follows string hashing. Pinning the
    hash seed makes the counts a function of ``--seed`` alone.
    """
    wanted = str(seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        env = dict(os.environ, PYTHONHASHSEED=wanted)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)


def run_benchmark(podfed, spec, name: str, seed: int, seconds: float, trace: bool,
                  out_dir: Path) -> tuple[dict, dict]:
    """Run one workload; return (result object, outputs written to ``out_dir``)."""
    from workload_gen import generate

    wall = time.perf_counter()
    scenario_text, ops_text = generate(spec, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario_path = out_dir / "scenario.yaml"
    scenario_path.write_text(scenario_text, encoding="utf-8")
    doc = json.loads(ops_text)
    bench = Bench(podfed, doc["operations"], doc["planted_files"])

    details: dict = {"workload": name, "seed": seed, "params": spec.describe()}
    phases = details["phase_wall_s"] = {"generate": time.perf_counter() - wall}
    if not trace:
        setups = [bench.load(scenario_path, seed) for _ in range(SETUPS)]
        phases["setup"] = time.perf_counter() - wall - sum(phases.values())
        loop = bench.replay(seconds)
        metrics = end_to_end(setups, loop)
        units = END_TO_END
        details["setup_runs_s"] = setups
    else:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            bench.tracer = tracer
            bench.load(scenario_path, seed)
            tracer.install_federation(bench.fed)
            planted_op = next(op for op in bench.ops if op.get("class") == "planted")
            _, result, report = bench.query(planted_op, kind="planted")
            if not bench.check_query(planted_op, result):
                bench._mismatch("planted query differs from the oracle")
            details["planted"] = {
                "selected": len(report.selected),
                "planted_sources": len(bench.planted_files),
                "keyring_size": len(bench.fed.keyring("planted")),
            }
            phases["setup"] = time.perf_counter() - wall - sum(phases.values())
            bench.tracer = None
            untraced = bench.replay(seconds / 2)
            bench.tracer = tracer
            loop = bench.replay(seconds / 2)
        finally:
            tracer.uninstall()
        untraced_p50 = 1000 * percentile(untraced["query_latencies"], 50)
        metrics = per_layer(tracer, loop, untraced_p50)
        units = PER_LAYER
    phases["replay_and_checks"] = time.perf_counter() - wall - sum(phases.values())
    scenario_path.unlink()
    fill = fill_metrics(bench.fed)
    metrics.update(fill)
    details["fill_per_component"] = fill["fill_per_component"]
    details["samples"] = {
        "queries": len(loop["query_latencies"]),
        "updates": len(loop["update_latencies"]),
        "oracle_checked_queries": bench.checks["queries"],
        "checked_combined_summaries": bench.checks["updates"],
    }
    details["pod_queries"] = {"issued": loop["pod_queries"], "wasted": loop["wasted_pod_queries"]}
    details["global_prune"] = {
        "pruned": loop["globally_pruned"], "base_probed_queries": loop["probed_queries"]
    }

    reported = {n: {"value": metrics[n], "unit": unit} for n, unit in units.items()}
    outputs = {"metrics": reported, "details": details}
    if trace:
        outputs["trace"] = {"spans": tracer.span_records()}
    leaks = find_leaks(outputs, secrets_of(bench.fed))
    if leaks:
        bench._mismatch(f"{len(leaks)} secret(s) found in the benchmark's outputs")
        outputs = {"metrics": {}, "details": {}}
    details = outputs["details"]
    details["error_rate"] = (bench.failed + bench.mismatches) / bench.attempted
    details["errors"] = bench.errors
    phases["total"] = time.perf_counter() - wall
    (out_dir / "metrics.json").write_text(
        json.dumps({"metrics": outputs["metrics"], "details": details}, indent=1)
    )
    if "trace" in outputs:
        (out_dir / "trace.json").write_text(json.dumps(outputs["trace"]))
    result = {
        "correct": bench.failed == 0 and bench.mismatches == 0,
        "attempted": bench.attempted,
        "failed": bench.failed + bench.mismatches,
        "metrics": outputs["metrics"],
    }
    return result, outputs


def main() -> int:
    args = parse_args(sys.argv[1:])
    pin_hash_seed(args.seed)
    podfed = import_podfed()
    from workload_gen import WORKLOADS

    out_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result, outputs = run_benchmark(podfed, WORKLOADS[args.workload], args.workload,
                                    args.seed, args.seconds, bool(args.trace), out_dir)
    for name, entry in result["metrics"].items():
        print(f"{name:45s} {entry['value']:14.4f} {entry['unit']}")
    details = outputs["details"]
    print(f"{'error_rate':45s} {details['error_rate']:14.4f} ratio "
          f"({result['failed']} failed or mismatched / {result['attempted']} operations)")
    for line in details["errors"]:
        print(f"error: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
