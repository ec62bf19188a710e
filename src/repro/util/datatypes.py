"""MPI datatypes and their data-map lowering.

DN-Analyzer represents every datatype as a *data-map*: a list of
``(displacement, length)`` byte segments plus an extent (section IV-C-1c of
the paper).  The simulator uses exactly that representation natively, so
the trace-side reconstruction in :mod:`repro.core.preprocess` can be
validated against the runtime's own lowering.  It sits below both.

Supported constructors mirror MPI-2.2: ``Type_contiguous``,
``Type_vector``, ``Type_indexed``, ``Type_create_struct`` (the paper's
``MPI_Type_struct``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.util.errors import SimMPIError
from repro.util.intervals import IntervalSet, datamap_intervals

DataMap = Tuple[Tuple[int, int], ...]

#: the context id of ``MPI_COMM_WORLD``, in the simulator and in the trace
WORLD_COMM_ID = 0


@dataclass(frozen=True)
class Datatype:
    """An MPI datatype lowered to its byte-level data-map.

    Attributes
    ----------
    name:
        ``"INT"`` etc. for primitives; a constructor expression string for
        derived types (diagnostics only).
    datamap:
        ``((displacement, length), ...)`` segments of one instance.
    extent:
        Stride between consecutive instances in a ``count > 1`` access.
    base:
        The primitive element type underlying every segment, when unique
        (needed for the accumulate same-basic-datatype exception and for
        arithmetic); ``None`` for heterogeneous structs.
    type_id:
        Trace identifier.  Negative ids are reserved for primitives and are
        globally fixed; derived types get nonnegative per-rank ids.
    """

    name: str
    datamap: DataMap
    extent: int
    base: Optional[str]
    type_id: int

    @property
    def size(self) -> int:
        """Number of bytes actually transferred per instance."""
        return sum(length for _, length in self.datamap)

    @property
    def is_contiguous(self) -> bool:
        return self.datamap == ((0, self.size),) and self.extent == self.size

    def intervals(self, base_addr: int, count: int) -> IntervalSet:
        """Byte intervals touched by ``count`` instances at ``base_addr``."""
        return datamap_intervals(base_addr, self.datamap, count, self.extent)

    def numpy_dtype(self) -> np.dtype:
        if self.base is None:
            raise SimMPIError(
                f"datatype {self.name} has no unique primitive base")
        return np.dtype(_PRIMITIVES[self.base][1])


# name -> (size, numpy dtype, fixed negative id)
_PRIMITIVES: Dict[str, Tuple[int, str, int]] = {
    "BYTE": (1, "u1", -1),
    "CHAR": (1, "i1", -2),
    "SHORT": (2, "i2", -3),
    "INT": (4, "i4", -4),
    "LONG": (8, "i8", -5),
    "FLOAT": (4, "f4", -6),
    "DOUBLE": (8, "f8", -7),
}


def _make_primitive(name: str) -> Datatype:
    size, _np, tid = _PRIMITIVES[name]
    return Datatype(name=name, datamap=((0, size),), extent=size,
                    base=name, type_id=tid)


BYTE = _make_primitive("BYTE")
CHAR = _make_primitive("CHAR")
SHORT = _make_primitive("SHORT")
INT = _make_primitive("INT")
LONG = _make_primitive("LONG")
FLOAT = _make_primitive("FLOAT")
DOUBLE = _make_primitive("DOUBLE")

PRIMITIVES: Dict[str, Datatype] = {
    t.name: t for t in (BYTE, CHAR, SHORT, INT, LONG, FLOAT, DOUBLE)
}

PRIMITIVES_BY_ID: Dict[int, Datatype] = {t.type_id: t for t in PRIMITIVES.values()}


_BY_NUMPY_DTYPE: Dict[np.dtype, Datatype] = {
    t.numpy_dtype(): t for t in PRIMITIVES.values()}


def primitive_for_numpy(np_dtype) -> Datatype:
    """Map a numpy element dtype to the matching MPI primitive."""
    dt = np.dtype(np_dtype)
    try:
        return _BY_NUMPY_DTYPE[dt]
    except KeyError:
        raise SimMPIError(f"no MPI primitive for numpy dtype {dt}") from None


def _merge_segments(segments: Sequence[Tuple[int, int]]) -> DataMap:
    """Sort and coalesce adjacent/overlapping ``(disp, len)`` segments."""
    segs = sorted((d, n) for d, n in segments if n > 0)
    out = []
    for disp, length in segs:
        if out and disp <= out[-1][0] + out[-1][1]:
            prev_d, prev_n = out[-1]
            out[-1] = (prev_d, max(prev_n, disp + length - prev_d))
        else:
            out.append((disp, length))
    return tuple(out)


class DatatypeFactory:
    """Per-rank derived-datatype constructor assigning trace ids.

    MPI datatype creation is a local operation; each rank numbers its own
    derived types, and DN-Analyzer rebuilds each rank's registry from that
    rank's trace.
    """

    def __init__(self) -> None:
        self._next_id = 0

    def _fresh_id(self) -> int:
        tid = self._next_id
        self._next_id += 1
        return tid

    def contiguous(self, count: int, old: Datatype) -> Datatype:
        if count < 0:
            raise SimMPIError(f"Type_contiguous: negative count {count}")
        segs = [(rep * old.extent + d, n)
                for rep in range(count) for d, n in old.datamap]
        return Datatype(
            name=f"contig({count},{old.name})",
            datamap=_merge_segments(segs),
            extent=count * old.extent,
            base=old.base,
            type_id=self._fresh_id(),
        )

    def vector(self, count: int, blocklength: int, stride: int,
               old: Datatype) -> Datatype:
        """``count`` blocks of ``blocklength`` elements, ``stride`` elements apart."""
        if count < 0 or blocklength < 0:
            raise SimMPIError("Type_vector: negative count/blocklength")
        segs = []
        for blk in range(count):
            blk_origin = blk * stride * old.extent
            for rep in range(blocklength):
                for d, n in old.datamap:
                    segs.append((blk_origin + rep * old.extent + d, n))
        extent = ((count - 1) * stride + blocklength) * old.extent if count else 0
        return Datatype(
            name=f"vector({count},{blocklength},{stride},{old.name})",
            datamap=_merge_segments(segs),
            extent=max(extent, 0),
            base=old.base,
            type_id=self._fresh_id(),
        )

    def indexed(self, blocklengths: Sequence[int], displacements: Sequence[int],
                old: Datatype) -> Datatype:
        """Blocks of varying length at varying element displacements."""
        if len(blocklengths) != len(displacements):
            raise SimMPIError("Type_indexed: length mismatch")
        segs = []
        max_end = 0
        for blen, disp in zip(blocklengths, displacements):
            origin = disp * old.extent
            for rep in range(blen):
                for d, n in old.datamap:
                    segs.append((origin + rep * old.extent + d, n))
            max_end = max(max_end, origin + blen * old.extent)
        return Datatype(
            name=f"indexed({list(blocklengths)},{list(displacements)},{old.name})",
            datamap=_merge_segments(segs),
            extent=max_end,
            base=old.base,
            type_id=self._fresh_id(),
        )

    def struct(self, blocklengths: Sequence[int], displacements: Sequence[int],
               types: Sequence[Datatype]) -> Datatype:
        """Heterogeneous struct with byte displacements (MPI_Type_struct)."""
        if not (len(blocklengths) == len(displacements) == len(types)):
            raise SimMPIError("Type_struct: length mismatch")
        segs = []
        max_end = 0
        bases = set()
        for blen, disp, typ in zip(blocklengths, displacements, types):
            bases.add(typ.base)
            for rep in range(blen):
                for d, n in typ.datamap:
                    segs.append((disp + rep * typ.extent + d, n))
            max_end = max(max_end, disp + blen * typ.extent)
        base = bases.pop() if len(bases) == 1 else None
        return Datatype(
            name=f"struct({len(types)} members)",
            datamap=_merge_segments(segs),
            extent=max_end,
            base=base,
            type_id=self._fresh_id(),
        )
