"""CLI verbs: mc-checker generate / fuzz."""

import json

from repro.cli import main
from repro.gen import GenConfig, Manifest, Program, generate_program


class TestGenerate:
    def test_prints_summary(self, capsys):
        assert main(["generate", "--seed", "7", "--bug", "any"]) == 0
        out = capsys.readouterr().out
        assert "1 injected bug(s)" in out

    def test_writes_program_and_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "p"
        assert main(["generate", "--seed", "7", "--ranks", "5",
                     "--bug", "op_pair", "--bug", "target_race",
                     "--out", str(out_dir)]) == 0
        program = Program.load(str(out_dir / "program.json"))
        manifest = Manifest.load(str(out_dir / "manifest.json"))
        assert program.nranks == 5
        assert [b.pattern for b in manifest.bugs] == \
            ["op_pair", "target_race"]
        # the CLI run is byte-identical to the library call
        expected = generate_program(GenConfig(
            seed=7, nranks=5, bugs=("op_pair", "target_race")))
        assert program.canonical_json() == \
            expected.program.canonical_json()

    def test_json_output(self, capsys):
        assert main(["generate", "--seed", "7", "--bug", "get_local",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bugs"][0]["pattern"] == "get_local"

    def test_rejects_bad_flags(self, capsys):
        assert main(["generate", "--ranks", "1"]) == 2
        assert "nranks" in capsys.readouterr().err


class TestFuzz:
    def test_corpus_green(self, capsys):
        assert main(["fuzz", "--seeds", "2", "--bug", "any",
                     "--no-differential"]) == 0
        out = capsys.readouterr().out
        assert "recall=1.000" in out

    def test_json_report(self, capsys):
        assert main(["fuzz", "--seeds", "1", "--bug", "op_pair",
                     "--no-differential", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["recall"] == 1.0
        assert len(payload["cases"]) == 1

    def test_differential_smoke(self, capsys):
        assert main(["fuzz", "--seeds", "1", "--seed", "3",
                     "--bug", "any", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (case,) = payload["cases"]
        assert case["seed"] == 3
        assert case["mismatched_arms"] == []
        assert len(case["arms"]) == 5
