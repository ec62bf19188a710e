"""The import graph follows the pipeline: a check loads the checker only.

DN-Analyzer consumes nothing but the trace, so importing it, the facade
or the CLI — and a whole ``mc-checker check`` — loads neither the
simulator, the generator, ST-Analyzer, the applications, the dashboard
nor the pool.  Each verb loads its own layer when it runs, so the rest
of this file reaches every deferred name and makes the first call of
every deferred entry point, each in a fresh interpreter: a broken
deferred import fails here, not at a user's prompt.
"""

import argparse
import os
import subprocess
import sys

import pytest

import repro
from repro import api
from repro.apps.emulate import emulate
from repro.cli import build_parser
from repro.profiler.session import profile_run

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: what a check never runs
CHECK_NEVER_LOADS = (
    "repro.simmpi", "repro.gen", "repro.stanalyzer", "repro.apps",
    "repro.ga", "repro.obs.dashboard", "repro.core.parallel",
    "repro.core.streaming", "repro.profiler.interpose",
    "repro.profiler.session", "multiprocessing",
)

REPORT_LOADED = (
    "\nimport sys\n"
    f"print('loaded:', *(m for m in {CHECK_NEVER_LOADS!r} "
    "if m in sys.modules))\n")


def fresh(*argv, code=None):
    """Run ``python -c code`` (or ``python *argv``) in a new interpreter
    over this checkout's ``src``; it must exit 0.  Returns its stdout."""
    command = [sys.executable] + (["-c", code] if code else list(argv))
    result = subprocess.run(
        command, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=SRC))
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def loaded_by(code):
    """The modules of :data:`CHECK_NEVER_LOADS` that ``code`` loads."""
    return fresh(code=code + REPORT_LOADED).splitlines()[-1].split()[1:]


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("traces"))
    profile_run(emulate, 2, trace_dir=directory)
    return directory


class TestACheckLoadsTheCheckerOnly:
    @pytest.mark.parametrize("module", ["repro.core", "repro.api",
                                        "repro.cli"])
    def test_import(self, module):
        assert loaded_by(f"import {module}") == []

    def test_a_whole_cli_check(self, trace_dir, _hermetic_ledger):
        code = ("from repro import cli\n"
                f"assert cli.main(['check', {trace_dir!r}, '--json']) == 1")
        assert loaded_by(code) == []
        # the ledger was on: the run was recorded
        assert (_hermetic_ledger / "ledger.jsonl").exists()


@pytest.mark.parametrize("package", ["repro", "repro.api", "repro.core",
                                     "repro.profiler", "repro.simmpi"])
def test_every_exported_name_resolves(package):
    fresh(code=f"import {package} as p\n"
               "for name in p.__all__:\n"
               "    getattr(p, name)\n")


def test_the_documented_imports():
    fresh(code="from repro.simmpi import INT, Datatype, run_app\n"
               "from repro import api, run_app, GenConfig, CheckConfig\n")


def _verbs():
    parser = build_parser()
    (verbs,) = [action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)]
    return sorted(verbs)


@pytest.mark.parametrize("verb", _verbs())
def test_verb_help(verb):
    out = fresh("-m", "repro.cli", verb, "--help")
    assert out.startswith(f"usage: mc-checker {verb}")


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("program"))
    api.generate(seed=1, nranks=2, bugs=("any",), out=directory)
    return directory


#: the first call of each entry point that imports its layer on use; the
#: assertion before it pins that the layer was not loaded up front
FIRST_CALLS = {
    "run": "from repro.apps.emulate import emulate\n"
           "assert 'repro.profiler.session' not in sys.modules\n"
           "assert api.run(emulate, 2, trace_dir=tmp).traces.nranks == 2",
    "run_check": "from repro.apps.emulate import emulate\n"
                 "assert 'repro.profiler.session' not in sys.modules\n"
                 "assert api.run_check(emulate, 2, trace_dir=tmp).has_errors",
    "generate": "assert 'repro.gen' not in sys.modules\n"
                "assert api.generate(seed=1, bugs=('any',), out=tmp)"
                ".manifest.bugs",
    "score": "assert 'repro.gen' not in sys.modules\n"
             "assert api.score([], manifest).recall == 0.0",
    "fuzz": "assert 'repro.gen' not in sys.modules\n"
            "assert api.fuzz(seed=1, nranks=2, rounds=2, bugs=('any',)).ok",
    "shutdown_pools": "api.shutdown_pools()\n"
                      "assert 'repro.core.parallel' not in sys.modules",
}


@pytest.mark.parametrize("verb", sorted(FIRST_CALLS))
def test_first_call_in_a_fresh_interpreter(verb, tmp_path, manifest_dir):
    fresh(code="import sys\n"
               "from repro import api\n"
               f"tmp, manifest = {str(tmp_path)!r}, {manifest_dir!r}\n"
               + FIRST_CALLS[verb])
