"""The redesigned ``repro.api`` facade: generate / fuzz / score."""

import pytest

import repro
from repro import api
from repro.gen import GenConfig, Manifest, replay
from repro.gen.fuzz import FuzzReport


def test_root_reexports():
    assert repro.GenConfig is GenConfig
    assert repro.generate is api.generate
    assert repro.fuzz is api.fuzz
    assert repro.score is api.score
    for name in ("GenConfig", "generate", "fuzz", "score"):
        assert name in repro.__all__


def test_generate_with_config_and_overrides():
    generated = api.generate(GenConfig(seed=4), nranks=6,
                             bugs=("op_pair",))
    assert generated.config.nranks == 6
    assert [b.pattern for b in generated.manifest.bugs] == ["op_pair"]


def test_generate_saves(tmp_path):
    out = tmp_path / "corpus" / "p0"
    api.generate(GenConfig(seed=4, bugs=("any",)), out=str(out))
    assert (out / "program.json").exists()
    assert (out / "manifest.json").exists()


def test_generate_composes_with_run_check():
    generated = api.generate(GenConfig(seed=4, nranks=4,
                                       bugs=("get_local",)))
    report = api.run_check(replay, generated.config.nranks,
                           params={"spec": generated.program},
                           scope="all")
    score = api.score(report, generated)
    assert score.recall == 1.0 and score.precision == 1.0


def test_score_accepts_manifest_value_and_paths(tmp_path):
    generated = api.generate(GenConfig(seed=4, nranks=4,
                                       bugs=("put_origin",)))
    generated.save(str(tmp_path))
    report = api.run_check(replay, 4,
                           params={"spec": generated.program},
                           scope="all")
    by_value = api.score(report, generated.manifest)
    by_dir = api.score(report, tmp_path)
    by_file = api.score(report, tmp_path / "manifest.json")
    assert by_value.to_dict() == by_dir.to_dict() == by_file.to_dict()
    assert isinstance(Manifest.load(str(tmp_path / "manifest.json")),
                      Manifest)


def test_fuzz_single_seed_default():
    report = api.fuzz(GenConfig(seed=21, nranks=4, bugs=("any",)),
                      differential=False)
    assert isinstance(report, FuzzReport)
    assert [c.seed for c in report.cases] == [21]
    assert report.ok


def test_fuzz_seed_corpus_with_overrides():
    report = api.fuzz(seeds=range(2), differential=False, nranks=4,
                      bugs=("op_pair",))
    assert [c.seed for c in report.cases] == [0, 1]
    assert report.recall == 1.0 and report.mismatches == 0


def test_fuzz_rejects_bad_override():
    with pytest.raises(ValueError):
        api.fuzz(nranks=1, differential=False)
