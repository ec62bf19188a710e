"""simmpi — a deterministic MPI-2.2 simulator with one-sided communication.

This package is the substrate substituting for a real MPI library plus
cluster (see DESIGN.md, substitution #1).  Ranks are cooperative threads
under a seeded token-passing scheduler; RMA operations are genuinely
nonblocking, with data movement deferred according to a delivery policy so
memory consistency bugs manifest exactly as they do on real hardware.

Quick tour::

    from repro.simmpi import run_app, INT

    def main(mpi):
        buf = mpi.alloc("buf", 4, datatype=INT)
        win = mpi.win_create(buf)
        win.fence()
        if mpi.rank == 0:
            buf.write([1, 2, 3, 4])
            win.put(buf, target=1)
        win.fence()
        out = buf.read()
        win.free()
        return out

    results = run_app(main, nranks=2, delivery="eager")
"""

from repro.simmpi.comm import Comm
from repro.simmpi.group import Group
from repro.simmpi.memory import AddressSpace, TrackedBuffer
from repro.simmpi.ops import (
    SUM, PROD, MIN, MAX, LAND, LOR, BAND, BOR, BXOR, REPLACE,
)
from repro.simmpi.p2p import ANY_SOURCE, ANY_TAG, Request, Status
from repro.simmpi.rma import (
    EAGER, LAZY, RANDOM, DELIVERY_POLICIES, RMAOp, DeliveryEngine,
    PUT, GET, ACC, GET_ACC, CAS,
)
from repro.simmpi.runtime import EventHook, MPIContext, World, run_app
from repro.simmpi.scheduler import Scheduler
from repro.simmpi.window import LOCK_EXCLUSIVE, LOCK_SHARED, WinHandle, Window
from repro.util.datatypes import (
    BYTE, CHAR, SHORT, INT, LONG, FLOAT, DOUBLE, WORLD_COMM_ID,
    Datatype, DatatypeFactory, PRIMITIVES, primitive_for_numpy,
)

__all__ = [
    "Comm", "WORLD_COMM_ID",
    "BYTE", "CHAR", "SHORT", "INT", "LONG", "FLOAT", "DOUBLE",
    "Datatype", "DatatypeFactory", "PRIMITIVES", "primitive_for_numpy",
    "Group", "AddressSpace", "TrackedBuffer",
    "SUM", "PROD", "MIN", "MAX", "LAND", "LOR", "BAND", "BOR", "BXOR",
    "REPLACE",
    "ANY_SOURCE", "ANY_TAG", "Request", "Status",
    "EAGER", "LAZY", "RANDOM", "DELIVERY_POLICIES", "RMAOp",
    "DeliveryEngine", "PUT", "GET", "ACC", "GET_ACC", "CAS",
    "EventHook", "MPIContext", "World", "run_app",
    "Scheduler",
    "LOCK_EXCLUSIVE", "LOCK_SHARED", "WinHandle", "Window",
]
