"""Checks of the benchmark itself: a deterministic generator and outputs that
carry no keys and no restricted terms.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from workload_gen import WORKLOADS, generate  # noqa: E402

podfed = bench.import_podfed()


def tiny(name: str):
    """The workload's shape at a size that runs in about a second."""
    spec = WORKLOADS[name]
    return dataclasses.replace(
        spec,
        pods=max(16, spec.pods // 10) if spec.pods > 4 else spec.pods,
        quads_per_file=min(spec.quads_per_file, 60),
        m=2**14,
        operations=120,
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    spec = WORKLOADS[name]
    first = generate(spec, 7)
    assert generate(spec, 7) == first
    other = generate(spec, 8)
    assert other[0] != first[0] and other[1] != first[1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_is_correct_and_outputs_leak_nothing(name, tmp_path):
    spec = tiny(name)
    result, outputs = bench.run_benchmark(podfed, spec, name, 3, 0.2, True, tmp_path)
    assert result["correct"], outputs["details"]["errors"]
    assert set(result["metrics"]) == set(bench.PER_LAYER)
    assert outputs["trace"]["spans"]

    (tmp_path / "scenario.yaml").write_text(generate(spec, 3)[0])
    fed = podfed.load_scenario(tmp_path / "scenario.yaml", seed=3, fixed_keys=True)
    secrets = bench.secrets_of(fed)
    assert podfed.restricted_terms(fed) and secrets
    written = (tmp_path / "metrics.json").read_text() + (tmp_path / "trace.json").read_text()
    assert not bench.find_leaks(outputs, secrets)
    assert not [s for s in secrets if s in written]


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    result, _ = bench.run_benchmark(podfed, tiny("churn"), "churn", 4, 0.2, False, tmp_path)
    assert result["correct"]
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_leak_guard_finds_keys_and_restricted_terms(tmp_path):
    scenario, _ = generate(tiny("select-heavy"), 5)
    path = tmp_path / "scenario.yaml"
    path.write_text(scenario)
    fed = podfed.load_scenario(path, seed=5, fixed_keys=True)
    _, term, keys = podfed.restricted_terms(fed)[0]
    key = next(iter(keys))
    assert bench.find_leaks({"span": f"probe {term}"}, bench.secrets_of(fed))
    assert bench.find_leaks({"note": ["x", {key.hex(): 1}]}, bench.secrets_of(fed))
    assert not bench.find_leaks({"client.source_probes": 12.5}, bench.secrets_of(fed))
