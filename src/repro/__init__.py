"""MC-Checker reproduction — memory consistency checking for (simulated)
MPI one-sided applications.

Top-level conveniences re-export the things most users need: the
simulated MPI runtime to write programs against, the checker to analyze
them, and the :mod:`repro.api` facade (``api.run`` / ``api.check`` /
``api.run_check``) configured through :class:`CheckConfig`.

    from repro import run_check

    def main(mpi):
        ...

    report = run_check(main, nranks=4)
    print(report.format())

Subpackages: :mod:`repro.simmpi` (the MPI-2.2/3 simulator),
:mod:`repro.stanalyzer` (static instrumentation analysis),
:mod:`repro.profiler` (trace collection), :mod:`repro.core`
(DN-Analyzer), :mod:`repro.gen` (constrained-random program generation
+ differential fuzzing), :mod:`repro.ga` (Global-Arrays layer),
:mod:`repro.apps` (the paper's evaluated applications),
:mod:`repro.tools` (trace statistics / filtering / diffing /
minimization).  Only the checker loads with the package; the rest loads
on first use of a name that needs it.
"""

from importlib import import_module

from repro.core import (
    CheckConfig, CheckReport, ConsistencyError, check_traces,
)

__version__ = "1.0.0"

#: name -> the module that defines it, imported on first access (PEP 562)
_DEFERRED = {
    "api": "repro.api", "run_check": "repro.api", "generate": "repro.api",
    "fuzz": "repro.api", "score": "repro.api", "GenConfig": "repro.gen",
    "MPIContext": "repro.simmpi", "run_app": "repro.simmpi",
}


def __getattr__(name):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(_DEFERRED[name])
    return module if name == "api" else getattr(module, name)


__all__ = [
    "CheckConfig", "CheckReport", "ConsistencyError", "check_traces",
    "api", "run_check",
    "GenConfig", "generate", "fuzz", "score",
    "MPIContext", "run_app",
    "__version__",
]
