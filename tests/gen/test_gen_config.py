"""GenConfig validation and derivation."""

import pytest

from repro import api
from repro.gen import BUG_PATTERNS, GenConfig


def test_defaults_are_valid():
    cfg = GenConfig()
    assert cfg.nranks == 4
    assert cfg.bugs == ()
    assert dict(cfg.epoch_weights).keys() == {
        "fence", "lock", "lockall", "pscw"}


@pytest.mark.parametrize("bad", [
    {"nranks": 1},
    {"rounds": 0},
    {"ops_per_round": 0},
    {"slot_elems": 1},
    {"reps": 0},
    {"flush_prob": 1.5},
    {"flush_prob": -0.1},
    {"trace_format": "xml"},
    {"bugs": ("no_such_pattern",)},
    {"epoch_weights": (("fence", -1.0),)},
    {"epoch_weights": (("quantum", 1.0),)},
    {"epoch_weights": (("fence", 0.0),)},
    {"op_weights": (("put", 0.0), ("get", 0.0))},
])
def test_validation_rejects(bad):
    with pytest.raises(ValueError):
        GenConfig(**bad)


def test_replace_derives_new_config():
    cfg = GenConfig(seed=1)
    derived = cfg.replace(nranks=8, bugs=("any",))
    assert derived.nranks == 8 and derived.bugs == ("any",)
    assert cfg.nranks == 4  # original untouched


def test_dict_roundtrip():
    cfg = GenConfig(seed=3, nranks=6, bugs=("op_pair", "any"),
                    epoch_weights=(("fence", 2.0), ("lock", 1.0)),
                    reps=5, trace_format="binary")
    assert GenConfig.from_dict(cfg.to_dict()) == cfg


def test_config_is_hashable_corpus_key():
    assert GenConfig(seed=1) == GenConfig(seed=1)
    assert len({GenConfig(seed=1), GenConfig(seed=1),
                GenConfig(seed=2)}) == 2


def test_coerce_passthrough():
    """A GenConfig handed to the api is used as is; none means the
    defaults."""
    cfg = GenConfig(seed=9)
    assert api.generate(cfg).config is cfg
    assert api.generate().config == GenConfig()


def test_coerce_rejects_wrong_type():
    with pytest.raises(TypeError):
        api.generate({"seed": 1})
    with pytest.raises(TypeError):
        api.fuzz({"seed": 1})
    # the prototype's nbugs= shim is gone: not a field, so not accepted
    with pytest.raises(TypeError):
        api.generate(nbugs=2)


def test_bug_patterns_frozen_contract():
    # docs/fuzzing.md and the manifest's paper-class map key off these
    assert BUG_PATTERNS == ("get_local", "put_origin", "op_pair",
                            "conflicting_puts", "target_race")
