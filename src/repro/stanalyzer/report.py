"""The instrumentation report handed from ST-Analyzer to the Profiler."""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import FrozenSet, Mapping, Tuple


@dataclass(frozen=True)
class InstrumentationReport:
    """What the Profiler must instrument, and why.

    Immutable, so one report serves every run of the same program text
    (:func:`~repro.stanalyzer.analyzer.analyze_source` is memoized): the
    constructor accepts any sets, mapping and sequence and freezes them.

    Attributes
    ----------
    relevant_vars:
        ``function name -> frozenset of variable names`` that may alias a
        window or one-sided origin buffer inside that function (a
        read-only mapping).
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

    relevant_vars: Mapping[str, FrozenSet[str]] = field(
        default_factory=dict, hash=False)
    buffer_names: FrozenSet[str] = frozenset()
    seeds: FrozenSet[Tuple[str, str]] = frozenset()
    alloc_sites: Tuple[Tuple[str, str, str, int], ...] = ()

    def __post_init__(self) -> None:
        freeze = object.__setattr__
        freeze(self, "relevant_vars", MappingProxyType(
            {fn: frozenset(names)
             for fn, names in self.relevant_vars.items()}))
        freeze(self, "buffer_names", frozenset(self.buffer_names))
        freeze(self, "seeds", frozenset(self.seeds))
        freeze(self, "alloc_sites", tuple(self.alloc_sites))

    def __reduce__(self):
        # a mappingproxy does not pickle or deep-copy; its dict does
        return (type(self), (dict(self.relevant_vars), self.buffer_names,
                             self.seeds, self.alloc_sites))

    def is_relevant(self, function: str, var: str) -> bool:
        return var in self.relevant_vars.get(function, ())

    def summary(self) -> str:
        lines = ["ST-Analyzer instrumentation report",
                 f"  buffers to instrument: {sorted(self.buffer_names)}"]
        for fn in sorted(self.relevant_vars):
            names = ", ".join(sorted(self.relevant_vars[fn]))
            lines.append(f"  {fn}: {names}")
        return "\n".join(lines)
