"""CheckConfig consolidation, CLI round-trip, and the ``repro.api``
facade."""

import dataclasses
import inspect
import json

import pytest

from repro import CheckConfig, api, obs
from repro.cli import UsageError, _config_from_args, build_parser
from repro.core.checker import MCChecker, check_traces
from repro.profiler.session import profile_run
from repro.simmpi import DOUBLE, LOCK_SHARED
from tests.stanalyzer.test_analyzer import WRAPPED_APPS


def _figure1(mpi):
    shared = mpi.alloc("shared", 1, datatype=DOUBLE,
                       fill=float(10 * mpi.rank))
    out = mpi.alloc("out", 1, datatype=DOUBLE, fill=0.0)
    win = mpi.win_create(shared)
    mpi.barrier()
    if mpi.rank == 0:
        win.lock(1, LOCK_SHARED)
        win.get(out, target=1, origin_count=1)
        out[0] = out[0] + 1.0
        win.unlock(1)
    mpi.barrier()
    win.free()


@pytest.fixture(scope="module")
def traces():
    return profile_run(_figure1, 2).traces


class TestCheckConfig:
    def test_defaults(self):
        config = CheckConfig()
        assert config.memory_model == "separate"
        assert config.jobs == 1
        assert not config.streaming
        assert not config.incremental
        assert config.cache_dir is None
        # one engine, one control plane: nothing else is tunable
        assert [f.name for f in dataclasses.fields(CheckConfig)] == [
            "memory_model", "jobs", "streaming", "cache_dir",
            "incremental"]

    def test_replace_derives_new_value(self):
        config = CheckConfig()
        derived = config.replace(jobs=4)
        assert derived.jobs == 4 and config.jobs == 1

    def test_frozen(self):
        with pytest.raises(AttributeError):
            CheckConfig().jobs = 2

    @pytest.mark.parametrize("kwargs", [
        dict(memory_model="relaxed"),
        dict(memory_model="Separate"),  # names are exact
        dict(incremental=True),  # no cache_dir
        dict(incremental=True, cache_dir="c", streaming=True),
        dict(incremental=True, cache_dir=""),
        dict(streaming=True, jobs=2),  # the streaming pass is serial
    ])
    def test_invalid_combinations_raise(self, kwargs):
        with pytest.raises(ValueError):
            CheckConfig(**kwargs)


class TestLegacyShims:
    """The keyword shims are gone: a config is the only way in, and a
    stale keyword is a loud ``TypeError``, never silently ignored.  The
    api verbs take config fields as overrides by design."""

    def test_legacy_kwargs_rejected(self, traces):
        for kwargs in (dict(memory_model="unified"), dict(jobs=2),
                       dict(engine="pairwise"), dict(naive_inter=True)):
            with pytest.raises(TypeError):
                MCChecker(traces, **kwargs)
            with pytest.raises(TypeError):
                check_traces(traces, **kwargs)

    def test_config_must_be_checkconfig(self, traces):
        with pytest.raises(TypeError):
            MCChecker(traces, {"jobs": 2})
        with pytest.raises(TypeError):
            check_traces(traces, "unified")
        # with or without overrides: the type is checked before any
        # override is applied (a dict has no .replace, a str's takes
        # no keywords)
        for config, overrides in (({"jobs": 1}, {}),
                                  ({"jobs": 1}, {"memory_model": "unified"}),
                                  ("x", {"jobs": 1})):
            with pytest.raises(TypeError, match="must be a CheckConfig"):
                api.check(traces, config, **overrides)
            with pytest.raises(TypeError, match="must be a CheckConfig"):
                api.run_check(_figure1, 2, config=config, **overrides)

    def test_run_check_accepts_config(self):
        report = api.run_check(_figure1, 2,
                               config=CheckConfig(memory_model="unified"))
        assert report.stats.nranks == 2


class TestCliRoundTrip:
    # --jobs and --incremental exclude each other (the cache is serial)
    ROUND_TRIPS = [
        (["--memory-model", "unified", "--jobs", "3",
          "--cache-dir", "/tmp/c"],
         CheckConfig(memory_model="unified", jobs=3, cache_dir="/tmp/c")),
        (["--cache-dir", "/tmp/c", "--incremental"],
         CheckConfig(cache_dir="/tmp/c", incremental=True)),
    ]

    def _assert_round_trips(self, command):
        parser = build_parser()
        for flags, expected in self.ROUND_TRIPS:
            args = parser.parse_args(command + flags)
            assert _config_from_args(args) == expected

    def test_check_flags_round_trip(self):
        self._assert_round_trips(["check", "dir"])

    def test_run_check_flags_round_trip(self):
        self._assert_round_trips(["run-check", "emulate"])

    def test_run_accepts_the_same_flags(self):
        self._assert_round_trips(["run", "emulate"])

    def test_identical_defaults_across_subcommands(self):
        parser = build_parser()
        configs = [
            _config_from_args(parser.parse_args(["check", "dir"])),
            _config_from_args(parser.parse_args(["run-check", "emulate"])),
            _config_from_args(parser.parse_args(["run", "emulate"])),
        ]
        assert configs[0] == configs[1] == configs[2] == CheckConfig()

    def test_incremental_requires_cache_dir(self):
        args = build_parser().parse_args(["check", "dir", "--incremental"])
        with pytest.raises(UsageError, match="requires --cache-dir"):
            _config_from_args(args)


class TestApiFacade:
    def test_run_check_finds_figure1_bug(self):
        report = api.run_check(_figure1, 2, delivery="lazy")
        assert report.has_errors

    def test_check_accepts_trace_path_and_overrides(self, traces):
        via_set = api.check(traces, jobs=1)
        via_path = api.check(traces.directory,
                             CheckConfig(memory_model="separate"))
        assert json.dumps([f.to_dict() for f in via_set.findings]) == \
            json.dumps([f.to_dict() for f in via_path.findings])

    def test_run_then_check(self, tmp_path):
        run = api.run(_figure1, 2, trace_dir=str(tmp_path),
                      trace_format="binary")
        report = api.check(run.traces)
        assert report.stats.nranks == 2

    @pytest.mark.parametrize("how", WRAPPED_APPS)
    def test_wrapped_app_is_instrumented_like_the_plain_one(self, how):
        """A ``partial`` used to be analysed as the module ``functools``:
        no origin buffer instrumented, 0 findings where the plain app
        gives 1."""
        plain = api.run_check(WRAPPED_APPS["plain"], 2)
        report = api.run_check(WRAPPED_APPS[how], 2)
        assert len(plain.findings) == 1

        def statements(rep):   # n differs, the two statements do not
            return [(d["rule"], d["a"]["fn"], d["a"]["line"],
                     d["b"]["fn"], d["b"]["line"])
                    for d in (f.to_dict() for f in rep.findings)]
        assert statements(report) == statements(plain)

    @pytest.mark.parametrize("how,name", [
        ("plain", "_origin_store_app"), ("partial", "_origin_store_app"),
        ("partial-of-wraps", "_origin_store_app"),
        ("lambda", "<lambda>"), ("instance", "app")])
    def test_app_name_is_the_unwrapped_callable_s(self, how, name,
                                                  tmp_path):
        run = api.run(WRAPPED_APPS[how], 2, trace_dir=str(tmp_path))
        with run.traces.reader(0) as reader:
            assert reader.header.app == name

    def test_facade_exported_from_package_root(self):
        import repro
        assert repro.api.check is api.check
        assert repro.run_check is api.run_check
        assert repro.CheckConfig is CheckConfig


class TestApiObservability:
    """The api verbs take one ``obs_config=`` and flush its exports even
    when the analysis raises."""

    def test_check_writes_exports(self, traces, tmp_path):
        metrics = tmp_path / "m.prom"
        chrome = tmp_path / "t.json"
        api.check(traces, obs_config=obs.ObsConfig(
            metrics_out=str(metrics), chrome_trace=str(chrome)))
        assert "# TYPE" in metrics.read_text()
        doc = json.loads(chrome.read_text())
        assert any(e.get("name") == "analyzer.run"
                   for e in doc["traceEvents"])

    def test_check_restores_previous_recorder(self, traces, tmp_path):
        before = obs.get_recorder()
        api.check(traces, obs_config=obs.ObsConfig(
            metrics_out=str(tmp_path / "m.prom")))
        assert obs.get_recorder() is before

    def test_obs_config_object_accepted(self, traces, tmp_path):
        metrics = tmp_path / "m.prom"
        api.check(traces, obs_config=obs.ObsConfig(
            metrics_out=str(metrics)))
        assert metrics.exists()

    def test_raising_check_still_writes_both_files(self, tmp_path):
        metrics = tmp_path / "m.prom"
        chrome = tmp_path / "t.json"
        with pytest.raises((OSError, ValueError)):
            api.check(str(tmp_path / "no-such-trace-dir"),
                      obs_config=obs.ObsConfig(metrics_out=str(metrics),
                                               chrome_trace=str(chrome)))
        assert metrics.exists(), "metrics not flushed on failure"
        assert chrome.exists(), "chrome trace not flushed on failure"
        json.loads(chrome.read_text())

    def test_no_exports_means_no_recording(self, traces):
        api.check(traces)
        assert not obs.is_enabled()


class TestOneWayIn:
    """One spelling per request: ``run_check`` profiles and checks,
    ``obs_config=`` is the only way to ask a verb for a recording."""

    def test_no_check_app(self):
        import repro
        import repro.core
        for module in (repro, repro.core):
            assert "check_app" not in module.__all__
            assert not hasattr(module, "check_app")

    def test_no_obs_shorthands(self):
        for verb in api.__all__:
            params = inspect.signature(getattr(api, verb)).parameters
            assert not {"metrics_out", "chrome_trace"} & set(params), verb

    def test_obs_config_fields(self):
        assert [f.name for f in dataclasses.fields(obs.ObsConfig)] == [
            "enabled", "metrics_out", "chrome_trace"]
