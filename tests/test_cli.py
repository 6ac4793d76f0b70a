import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import BOB_PROFILE

from podfed.cli import main


def run(*argv):
    return main(list(argv))


class TestRun:
    def test_query_prints_results_and_report(self, capsys):
        code = run("run", "--as", "alice",
                   "--pattern", "?s <urn:podfed:vocab#email> ?o ?g",
                   "--seed", "1", "--fixed-keys")
        out = capsys.readouterr().out
        assert code == 0
        assert "# results: 2" in out
        assert "bob@pods.org" in out and "carol@pods.org" in out
        assert "2 selected" in out
        assert "# summary probes: 8 (global 3, per source 5)" in out

    def test_output_does_not_depend_on_the_hash_seed(self):
        # keys are probed in sorted order, so the probe sequence and its
        # count are a function of the inputs alone
        argv = [sys.executable, "-m", "podfed.cli", "run", "--as", "alice",
                "--pattern", "?s <urn:podfed:vocab#email> ?o ?g", "--seed", "1", "--fixed-keys"]
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = {
            subprocess.run(
                argv, env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("0", "2")
        }
        assert len(outputs) == 1
        assert "# summary probes: 8" in outputs.pop()

    def test_globally_pruned_query(self, capsys):
        code = run("run", "--as", "dave", "--pattern", "?s <urn:podfed:vocab#telephone> ?o ?g")
        out = capsys.readouterr().out
        assert code == 0
        assert "# results: 0" in out
        assert "pruned by the global pre-filter" in out

    def test_parallel_flag(self, capsys):
        code = run("run", "--as", "bob", "--pattern", "?s ?p ?o ?g", "--parallel")
        assert code == 0
        assert "# results: 6" in capsys.readouterr().out

    def test_unknown_identity_is_a_usage_error(self, capsys):
        assert run("run", "--as", "mallory", "--pattern", "?s ?p ?o ?g") == 2
        assert "mallory" in capsys.readouterr().err

    def test_malformed_pattern_is_a_usage_error(self, capsys):
        assert run("run", "--as", "alice", "--pattern", "?s ?p") == 2
        assert "4 whitespace-separated terms" in capsys.readouterr().err

    def test_missing_scenario_is_a_usage_error(self, capsys):
        assert run("run", "--scenario", "no-such.yaml", "--pattern", "?s ?p ?o ?g") == 2
        assert "no-such.yaml" in capsys.readouterr().err


class TestFpr:
    def test_passes_within_tolerance(self, capsys):
        code = run("fpr", "--m", "2048", "--h", "3", "--inserts", "200",
                   "--probes", "50000", "--seed", "42")
        out = capsys.readouterr().out
        assert code == 0
        assert "measured" in out and "expected" in out

    def test_fails_outside_tolerance(self, capsys):
        code = run("fpr", "--m", "2048", "--h", "3", "--inserts", "200",
                   "--probes", "50000", "--seed", "42", "--tolerance", "0.0001")
        assert code == 1
        assert "outside tolerance" in capsys.readouterr().err


class TestLeak:
    def test_reports_restricted_terms(self, capsys):
        code = run("leak", "--probes", "200", "--seed", "5", "--fixed-keys")
        out = capsys.readouterr().out
        assert code == 0
        assert "telephone" in out
        assert "interface opaque: yes" in out


class TestRotateKey:
    def test_rotates(self, capsys):
        assert run("rotate-key", "--policy", "r5") == 0
        assert "rotated key for policy r5" in capsys.readouterr().out

    def test_unknown_policy(self, capsys):
        assert run("rotate-key", "--policy", "r99") == 2


class TestDumpSummary:
    def test_dump_formats(self, tmp_path, capsys):
        combined = tmp_path / "combined.bin"
        per_file = tmp_path / "file.bin"
        component = tmp_path / "component.bin"
        base = ["dump-summary", "--fixed-keys", "--seed", "3", "--out"]
        assert run(*base, str(combined)) == 0
        assert run(*base, str(per_file), "--file", BOB_PROFILE) == 0
        assert run(*base, str(component), "--file", BOB_PROFILE, "--component", "object") == 0
        assert combined.read_bytes()[:4] == b"PPAS"
        assert per_file.read_bytes()[:4] == b"PPAS"
        assert component.read_bytes()[:4] == b"PPFS"

    def test_two_runs_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        for out in (a, b):
            assert run("dump-summary", "--fixed-keys", "--seed", "3", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_dump(self, capsysbinary):
        assert run("dump-summary", "--fixed-keys", "--seed", "3", "--out", "-") == 0
        assert capsysbinary.readouterr().out[:4] == b"PPAS"

    def test_component_requires_file(self, tmp_path, capsys):
        code = run("dump-summary", "--component", "object", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "--component needs --file" in capsys.readouterr().err

    def test_unknown_file_uri(self, tmp_path, capsys):
        code = run("dump-summary", "--file", "urn:ghost", "--out", str(tmp_path / "x"))
        assert code == 2


class TestEnvSeed:
    def test_env_overrides_flag(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        assert run("dump-summary", "--fixed-keys", "--seed", "3", "--out", str(a)) == 0
        monkeypatch.setenv("PODFED_SEED", "99")
        assert run("dump-summary", "--fixed-keys", "--seed", "3", "--out", str(b)) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_seed_outside_64_bits_is_a_usage_error(self, capsys):
        code = run("run", "--fixed-keys", "--seed", str(2**64), "--pattern", "?s ?p ?o ?g")
        assert code == 2
        assert "signed 64-bit" in capsys.readouterr().err

    def test_invalid_env_seed(self, monkeypatch, capsys):
        monkeypatch.setenv("PODFED_SEED", "not-a-number")
        assert run("fpr", "--m", "4096", "--h", "5", "--inserts", "10", "--probes", "100") == 2
        assert "PODFED_SEED" in capsys.readouterr().err
