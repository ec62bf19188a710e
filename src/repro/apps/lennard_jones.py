"""``Lennard-Jones`` — GA-over-ARMCI-style molecular dynamics (Figure 8).

The Global Arrays version of this benchmark keeps particle positions and
forces in globally addressable arrays and moves data with one-sided
get/accumulate through ARMCI (ARMCI-MPI lowers those to MPI RMA).  The
reimplementation keeps that structure:

* ``pos`` window — this rank's particle coordinates;
* ``force`` window — this rank's force accumulator;
* per step: fetch every remote rank's positions with ``Get`` (fence
  epoch), compute pairwise LJ forces locally, push partial forces to their
  owners with ``Accumulate(SUM)`` (concurrent accumulates with the same
  op/type are compatible — Table I's one BOTH-overlap cell), then
  integrate.

All local window accesses are separated from remote epochs by fences, so
the app is consistency-clean — it exists to measure profiling overhead,
not to be a bug study.
"""

from __future__ import annotations

import numpy as np

from repro.simmpi import DOUBLE, MPIContext, SUM

_DIM = 3
_EPS = 1e-3  # softening to keep the toy dynamics finite


def _lj_force(delta: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Simplified LJ force magnitude over pair displacement vectors."""
    inv2 = 1.0 / (r2 + _EPS)
    inv6 = inv2 ** 3
    return (24.0 * inv6 * (2.0 * inv6 - 1.0) * inv2)[:, None] * delta


def lennard_jones(mpi: MPIContext, particles_per_rank: int = 4,
                  steps: int = 3, dt: float = 1e-3):
    """Run the MD loop; returns this rank's final kinetic-ish checksum.

    The force window is integrated and reset with whole-slice accesses
    (one load + one store record each).
    """
    ppr = particles_per_rank
    width = ppr * _DIM
    pos = mpi.alloc("pos", width, datatype=DOUBLE)
    force = mpi.alloc("force", width, datatype=DOUBLE, fill=0.0)
    remote_pos = mpi.alloc("remote_pos", width, datatype=DOUBLE)
    fpartial = mpi.alloc("fpartial", width, datatype=DOUBLE, fill=0.0)
    pos_win = mpi.win_create(pos)
    force_win = mpi.win_create(force)

    # deterministic initial lattice, offset per rank
    init = (np.arange(width, dtype=float) / width
            + float(mpi.rank)) % float(mpi.size)
    pos.write(init)
    velocity = np.zeros(width)

    pos_win.fence()
    force_win.fence()
    for _step in range(steps):
        my_pos = pos.read(0, width).reshape(ppr, _DIM)
        total_force = np.zeros((ppr, _DIM))

        pos_win.fence()  # open the position-fetch epoch
        fetched = {}
        for other in range(mpi.size):
            if other == mpi.rank:
                continue
            pos_win.get(remote_pos, target=other, origin_count=width)
            # NOTE: read after the epoch closes would batch all targets;
            # with one staging buffer we must drain per target, so close
            # the epoch now and reopen (fence per partner keeps the code
            # simple and adds realistic synchronization traffic)
            pos_win.fence()
            fetched[other] = remote_pos.read(0, width).reshape(ppr, _DIM)
        pos_win.fence()  # every rank leaves the fetch phase together

        # pairwise forces: mine x mine, then mine x each remote block
        for i in range(ppr):
            delta = my_pos - my_pos[i]
            r2 = (delta ** 2).sum(axis=1)
            r2[i] = np.inf
            total_force[i] -= _lj_force(delta, r2).sum(axis=0)
        force_win.fence()  # open the accumulate epoch
        for other, block in fetched.items():
            contrib = np.zeros((ppr, _DIM))
            for i in range(ppr):
                delta = block - my_pos[i]
                r2 = (delta ** 2).sum(axis=1)
                pair = _lj_force(delta, r2)
                total_force[i] -= pair.sum(axis=0)
                contrib += pair
            fpartial.write(contrib.reshape(width))
            force_win.accumulate(fpartial, target=other, op=SUM,
                                 origin_count=width)
            force_win.fence()  # fpartial is reusable after the flush
        force_win.fence()  # all accumulates landed everywhere

        # integrate: own force window += my own contribution, then read
        force.write_block(force.read_block(0, width)
                          + total_force.reshape(width))
        velocity += dt * force.read(0, width)
        pos.write(pos.read(0, width) + dt * velocity)
        force.write_block(np.zeros(width))  # reset accumulator
        force_win.fence()  # local resets precede the next epoch's accs
        pos_win.fence()  # position updates precede the next fetch epoch

    checksum = float(np.abs(velocity).sum())
    pos_win.free()
    force_win.free()
    return checksum
