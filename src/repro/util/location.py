"""Source locations attached to every profiled event.

The paper's Profiler records file names, routine names, and line numbers so
that DN-Analyzer can point programmers at the exact conflicting statements
(section IV-B).  Here the "application" is Python code running on the
simulated MPI runtime, so locations are captured by walking the interpreter
stack at the instrumentation point and skipping frames that belong to the
runtime itself.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from types import CodeType
from typing import Dict, Tuple

#: Path fragments considered part of the runtime; frames in these modules are
#: skipped when attributing an event to application code.
_RUNTIME_FRAGMENTS = (
    "/repro/simmpi/",
    "/repro/profiler/",
    "/repro/util/",
    "/repro/ga/",  # the GA layer is a runtime: report the GA call site
    "/threading.py",
)


@dataclass(frozen=True, order=True)
class SourceLocation:
    """A (file, line, function) triple identifying one program statement."""

    filename: str
    lineno: int
    function: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.filename}:{self.lineno} in {self.function}"

    @property
    def short(self) -> str:
        """``basename:lineno`` — the form used in diagnostic tables."""
        base = self.filename.rsplit("/", 1)[-1]
        return f"{base}:{self.lineno}"

    def encode(self) -> str:
        """``file:line:function`` — the trace's form of a location,
        formatted once per instance (which is frozen)."""
        try:
            return self.__dict__["_encoded"]
        except KeyError:
            text = f"{self.filename}:{self.lineno}:{self.function}"
            self.__dict__["_encoded"] = text
            return text

    @classmethod
    def decode(cls, text: str) -> "SourceLocation":
        filename, lineno, function = text.rsplit(":", 2)
        return cls(filename, int(lineno), function)


UNKNOWN_LOCATION = SourceLocation("<unknown>", 0, "<unknown>")

# capture_location runs once per profiled event, so everything static
# about a call site is worked out the first time the site is seen — the
# analogue of the paper's instrumentation pass, which knows file, line
# and routine before the run and logs only dynamic values.

#: filename -> is it the runtime's.  Keyed by the filename, not by the
#: code object: a ``str`` caches its hash, a code object re-hashes its
#: name, bytecode, constants and names on every probe.
_RUNTIME_FILES: Dict[str, bool] = {}

#: ``(id(code), f_lasti)`` -> ``(location, code)``, one entry per call
#: site.  The entry holds the code object, so its ``id`` cannot be
#: recycled while the entry lives; the line is decoded from the code's
#: line table once per site (``f_lineno`` walks the table from the
#: function's first line each time it is read).  The key set is small
#: and immortal: runtime and application functions.
_SITES: Dict[Tuple[int, int], Tuple[SourceLocation, CodeType]] = {}


def capture_location(skip_runtime: bool = True) -> SourceLocation:
    """Capture the innermost application frame as a :class:`SourceLocation`.

    Frames whose filename contains a runtime path fragment are skipped so
    the event is attributed to the simulated application, not to the
    simulator or profiler internals — the analogue of the paper's LLVM pass
    instrumenting application IR rather than libmpi.
    """
    frame = sys._getframe(1)
    runtime = _RUNTIME_FILES
    while frame is not None:
        code = frame.f_code
        if skip_runtime:
            filename = code.co_filename
            flag = runtime.get(filename)
            if flag is None:
                flag = runtime[filename] = any(
                    f in filename for f in _RUNTIME_FRAGMENTS)
            if flag:
                frame = frame.f_back
                continue
        key = (id(code), frame.f_lasti)
        site = _SITES.get(key)
        if site is None:
            site = _SITES[key] = (
                SourceLocation(code.co_filename, frame.f_lineno,
                               code.co_name), code)
        return site[0]
    return UNKNOWN_LOCATION
