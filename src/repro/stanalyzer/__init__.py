"""ST-Analyzer — static identification of window-relevant variables.

Python-AST reimplementation of the paper's Clang/LLVM-based component
(section IV-A): seed the "relevant" set with variables used as window
buffers or one-sided origin buffers, propagate labels through assignments
and function-call bindings to a fixed point, and report the variables whose
loads/stores the Profiler must instrument.

Like the original, the analysis is conservative — flow-, branch- and
loop-insensitive — so it may over-approximate (instrument more than
strictly needed) but never misses a relevant variable reachable through
assignment/call aliasing.
"""

from repro.stanalyzer.report import InstrumentationReport
from repro.stanalyzer.analyzer import (
    analyze_source,
    analyze_module,
    analyze_app,
    unwrap_app,
)

__all__ = [
    "InstrumentationReport",
    "analyze_source",
    "analyze_module",
    "analyze_app",
    "unwrap_app",
]
