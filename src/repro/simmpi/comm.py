"""Communicators: a group plus a context id for message matching."""

from __future__ import annotations

from repro.simmpi.group import Group


class Comm:
    """An MPI communicator: an id (context) and an ordered member group.

    Message matching and collective matching are both scoped by
    :attr:`comm_id`, so communication on different communicators never
    interferes — the property DN-Analyzer relies on when it resolves
    group-relative ranks back to world ranks (section IV-C-1a).
    """

    __slots__ = ("comm_id", "group")

    def __init__(self, comm_id: int, group: Group):
        self.comm_id = comm_id
        self.group = group

    @property
    def size(self) -> int:
        return self.group.size

    def rank_of_world(self, world_rank: int) -> int:
        return self.group.rank_of_world(world_rank)

    def world_of_rank(self, comm_rank: int) -> int:
        return self.group.world_of_rank(comm_rank)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Comm(id={self.comm_id}, ranks={self.group.world_ranks})"
