"""Point-to-point messaging: buffered sends, blocking/nonblocking receives.

Sends are *buffered*: the payload is copied out of the application buffer
at send time and deposited in the destination's mailbox, so ``send``
returns immediately (the common eager-protocol behaviour of real MPIs for
small messages).  ``recv`` blocks until a matching message exists.  The
happens-before edge DN-Analyzer derives — send completes before the
matching recv returns — holds under this model.

Matching follows MPI rules: (communicator, source, tag), with
``ANY_SOURCE``/``ANY_TAG`` wildcards, FIFO (non-overtaking) per
(source, dest, comm) channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

ANY_SOURCE = -1
ANY_TAG = -1


@dataclass
class Message:
    src_world: int
    dst_world: int
    comm_id: int
    tag: int
    payload: Any  # bytes for buffer sends, arbitrary object otherwise
    elem_count: int = 0
    seq: int = 0


@dataclass
class Status:
    """Receive status: world/comm source rank and tag of the matched message."""

    source: int
    tag: int
    count: int


class MessageRouter:
    """Mailbox per destination world rank with MPI matching semantics."""

    def __init__(self, nranks: int):
        self._boxes: Dict[int, List[Message]] = {r: [] for r in range(nranks)}
        self._seq = 0

    def post(self, msg: Message) -> None:
        msg.seq = self._seq
        self._seq += 1
        self._boxes[msg.dst_world].append(msg)

    def find(self, dst_world: int, comm_id: int, src_world: int,
             tag: int) -> Optional[Message]:
        """First (FIFO) message matching the receive spec, without removing."""
        for msg in self._boxes[dst_world]:
            if msg.comm_id != comm_id:
                continue
            if src_world != ANY_SOURCE and msg.src_world != src_world:
                continue
            if tag != ANY_TAG and msg.tag != tag:
                continue
            return msg
        return None

    def take(self, dst_world: int, msg: Message) -> None:
        self._boxes[dst_world].remove(msg)


@dataclass
class Request:
    """Handle for a nonblocking operation (MPI_Request).

    ``isend`` requests are complete at creation (buffered send); ``irecv``
    requests complete when a matching message has been drained into the
    receive buffer by ``wait``/``test``.
    """

    kind: str  # "isend" | "irecv"
    rank: int
    complete: bool = False
    status: Optional[Status] = None
    #: irecv bookkeeping, filled by the context
    _match_spec: Optional[Tuple[int, int, int]] = None  # comm_id, src_world, tag
    _recv_into: Any = None
    _recv_offset: int = 0
    _recv_count: Optional[int] = None
    _recv_dtype: Any = None
    _payload: Any = None
