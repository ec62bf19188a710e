"""The instrumentation report handed from ST-Analyzer to the Profiler."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple


@dataclass
class InstrumentationReport:
    """What the Profiler must instrument, and why.

    Attributes
    ----------
    relevant_vars:
        ``function name -> set of variable names`` that may alias a window
        or one-sided origin buffer inside that function.
    buffer_names:
        Allocation names (the string passed to ``mpi.alloc``) of buffers
        that a relevant variable can reach; the Profiler flips these
        buffers' ``instrumented`` bit.
    seeds:
        The ``(function, variable)`` pairs that seeded the analysis — the
        direct window/origin arguments of RMA calls.
    alloc_sites:
        ``(function, variable, buffer name, line)`` for every recognized
        ``mpi.alloc`` call, relevant or not (diagnostics).
    """

    relevant_vars: Dict[str, Set[str]] = field(default_factory=dict)
    buffer_names: Set[str] = field(default_factory=set)
    seeds: Set[Tuple[str, str]] = field(default_factory=set)
    alloc_sites: List[Tuple[str, str, str, int]] = field(default_factory=list)

    def is_relevant(self, function: str, var: str) -> bool:
        return var in self.relevant_vars.get(function, ())

    def summary(self) -> str:
        lines = ["ST-Analyzer instrumentation report",
                 f"  buffers to instrument: {sorted(self.buffer_names)}"]
        for fn in sorted(self.relevant_vars):
            names = ", ".join(sorted(self.relevant_vars[fn]))
            lines.append(f"  {fn}: {names}")
        return "\n".join(lines)
