"""Stable high-level facade: ``run``, ``check``, ``run_check``,
``generate``, ``fuzz``, ``score``.

The first three verbs cover the paper's workflow end to end
(``run_check`` is the one call that profiles and checks), each
configured by a single :class:`~repro.core.config.CheckConfig` value
instead of the per-function kwarg lists the internals grew over time:

    from repro import api, CheckConfig

    run = api.run(my_app, nranks=4)      # binary traces unless "text"
    report = api.check(run.traces,
                       CheckConfig(cache_dir=".mc-cache", incremental=True))
    print(report.format())

``check`` accepts either a :class:`~repro.profiler.tracer.TraceSet` or a
trace-directory path, and field overrides as keyword arguments
(``api.check(traces, jobs=4)`` is ``CheckConfig(jobs=4)``); overrides on
top of an explicit config derive a new one with
:meth:`CheckConfig.replace`.  A keyword that is not a config field is a
``TypeError``, and so is a config that is not a ``CheckConfig``.

``run``, ``check``, ``run_check`` and ``fuzz`` also take
``obs_config=`` (:class:`repro.obs.ObsConfig`), which scopes a
recording session around the call and flushes the exporters even when
the analysis raises, so a crashed run still leaves its flight record
behind.

Parallel runs (``jobs > 1``) lazily start one persistent worker pool
per process and reuse it across every later analysis of the same shape;
each run resets the workers and unlinks its shared-memory segments when
it finishes, but the worker processes stay up.  They are torn down
automatically at interpreter exit — call :func:`shutdown_pools` to
release them earlier (e.g. between test cases, or in a long-lived
service before forking).

The generation-side verbs mirror the same shape around
:class:`~repro.gen.GenConfig`:

    from repro.gen import GenConfig, replay

    program = api.generate(GenConfig(seed=7, bugs=("any",) * 3))
    report = api.run_check(replay, program.config.nranks,
                           params={"spec": program.program}, scope="all")
    print(api.score(report, program.manifest).to_dict())

    corpus = api.fuzz(GenConfig(nranks=8, bugs=("any",) * 2),
                      seeds=range(10))
    assert corpus.ok  # recall == 1.0, zero differential mismatches

Importing the facade loads the checker only; the simulator loads on the
first ``run``, the generator on the first ``generate`` / ``fuzz`` / ``score``.
"""

from __future__ import annotations

import os
import sys
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable,
                    Optional, Union)

from repro import obs
from repro.core.checker import CheckReport, check_traces
from repro.core.config import CheckConfig
from repro.profiler.tracer import TraceSet

if TYPE_CHECKING:
    from repro.gen import GenConfig, GeneratedProgram, Manifest, Score
    from repro.gen.fuzz import FuzzReport
    from repro.profiler.session import ProfiledRun

__all__ = ["run", "check", "run_check", "generate", "fuzz", "score",
           "shutdown_pools"]


def shutdown_pools() -> None:
    """Stop the worker pools this process started (none: nothing loads)."""
    parallel = sys.modules.get("repro.core.parallel")
    if parallel is not None:
        parallel.shutdown_pools()


def _derive(cls: type, config, overrides: dict):
    """``config`` (default ``cls()``) with ``overrides`` applied; a config
    of another type is a ``TypeError`` whether or not there are any."""
    cfg = config if config is not None else cls()
    if not isinstance(cfg, cls):
        raise TypeError(f"config must be a {cls.__name__}, "
                        f"got {type(cfg).__name__}")
    return cfg.replace(**overrides) if overrides else cfg


def run(app: Callable, nranks: int, *,
        trace_dir: Optional[str] = None,
        params: Optional[Dict[str, Any]] = None,
        scope: str = "report",
        delivery: str = "random",
        sched_policy: str = "round_robin",
        seed: int = 0,
        trace_format: str = "binary",
        app_name: Optional[str] = None,
        obs_config: Optional[obs.ObsConfig] = None) -> ProfiledRun:
    """Profile ``app`` on the simulated runtime; returns the run (its
    ``.traces`` feed :func:`check`)."""
    from repro.profiler.session import profile_run
    with obs.session(obs_config):
        return profile_run(app, nranks, trace_dir=trace_dir, params=params,
                           scope=scope, delivery=delivery,
                           sched_policy=sched_policy, seed=seed,
                           trace_format=trace_format, app_name=app_name)


def check(traces: Union[TraceSet, str, "os.PathLike[str]"],
          config: Optional[CheckConfig] = None,
          *, obs_config: Optional[obs.ObsConfig] = None,
          **overrides) -> CheckReport:
    """Analyze a trace set (or trace directory) for consistency errors."""
    cfg = _derive(CheckConfig, config, overrides)
    with obs.session(obs_config):
        if not isinstance(traces, TraceSet):
            traces = TraceSet(os.fspath(traces))
        return check_traces(traces, cfg)


def run_check(app: Callable, nranks: int, *,
              trace_dir: Optional[str] = None,
              params: Optional[Dict[str, Any]] = None,
              scope: str = "report",
              delivery: str = "random",
              sched_policy: str = "round_robin",
              seed: int = 0,
              trace_format: str = "binary",
              app_name: Optional[str] = None,
              config: Optional[CheckConfig] = None,
              obs_config: Optional[obs.ObsConfig] = None,
              **overrides) -> CheckReport:
    """Profile and analyze in one call (the ``mc-checker run-check``
    workflow)."""
    cfg = _derive(CheckConfig, config, overrides)
    with obs.session(obs_config):
        profiled = run(app, nranks, trace_dir=trace_dir, params=params,
                       scope=scope, delivery=delivery,
                       sched_policy=sched_policy, seed=seed,
                       trace_format=trace_format, app_name=app_name)
        return check(profiled.traces, cfg)


def _gen_config(config: Optional[GenConfig], overrides: dict) -> GenConfig:
    from repro.gen import GenConfig
    return _derive(GenConfig, config, overrides)


def generate(config: Optional[GenConfig] = None, *,
             out: Optional[str] = None,
             **overrides) -> GeneratedProgram:
    """Generate one synthetic RMA program + ground-truth manifest.

    Field overrides are accepted as keyword arguments
    (``api.generate(seed=7, nranks=16)`` is
    ``GenConfig(seed=7, nranks=16)``).  ``out=`` saves ``program.json``
    and ``manifest.json`` into that directory.
    """
    from repro.gen import generate_program
    generated = generate_program(_gen_config(config, overrides))
    if out is not None:
        generated.save(out)
    return generated


def fuzz(config: Optional[GenConfig] = None,
         seeds: Optional[Iterable[int]] = None, *,
         check_config: Optional[CheckConfig] = None,
         differential: bool = True,
         obs_config: Optional[obs.ObsConfig] = None,
         **overrides) -> FuzzReport:
    """Run the differential fuzzing harness over a seed corpus.

    Each seed derives ``config.replace(seed=...)``, generates a program,
    profiles it, scores the findings against the manifest, and (unless
    ``differential=False``) cross-checks every executor — batch,
    streaming, incremental cold and warm — and the other trace format
    for byte-identical reports.  ``seeds=None`` runs the single seed
    already in the config.
    """
    from repro.gen.fuzz import FuzzReport, fuzz_corpus, run_case
    cfg = _gen_config(config, overrides)
    with obs.session(obs_config):
        if seeds is None:
            case = run_case(cfg, check_config,
                            differential=differential)
            return FuzzReport(cases=(case,))
        return fuzz_corpus(cfg, list(seeds), check_config,
                           differential=differential)


def score(report: Union[CheckReport, list],
          manifest: Union[Manifest, GeneratedProgram, str,
                          "os.PathLike[str]"]) -> Score:
    """Match a report's findings against a ground-truth manifest.

    ``manifest`` may be a :class:`~repro.gen.manifest.Manifest`, the
    :class:`~repro.gen.generator.GeneratedProgram` that owns one, or a
    path to a saved ``manifest.json``.
    """
    from repro.gen import GeneratedProgram, Manifest, score_report
    if isinstance(manifest, GeneratedProgram):
        manifest = manifest.manifest
    elif not isinstance(manifest, Manifest):
        path = os.fspath(manifest)
        if os.path.isdir(path):
            path = os.path.join(path, "manifest.json")
        manifest = Manifest.load(path)
    return score_report(report, manifest)
