"""Data-access DAG tests, including the paper's Figure 3/4 example."""

import networkx as nx
import pytest

from repro.core.dag import build_dag, concurrent, event_node, happens_before
from repro.core.epochs import EpochIndex
from repro.core.matching import match_synchronization
from repro.core.preprocess import preprocess
from repro.profiler.events import CallEvent
from repro.profiler.session import profile_run
from repro.simmpi import DOUBLE, INT


def dag_for(app, nranks, **kw):
    kw.setdefault("delivery", "random")
    pre = preprocess(profile_run(app, nranks, **kw).traces)
    matches = match_synchronization(pre)
    epochs = EpochIndex(pre)
    return pre, build_dag(pre, matches, epochs)


def seq_of(pre, rank, fn, occurrence=0):
    seqs = [e.seq for e in pre.events[rank]
            if isinstance(e, CallEvent) and e.fn == fn]
    return seqs[occurrence]


def mem_seq(pre, rank, access, occurrence=0):
    seqs = [e.seq for e in pre.events[rank]
            if not isinstance(e, CallEvent) and e.access == access]
    return seqs[occurrence]


class TestEpochRule:
    def test_put_hangs_in_the_epoch_the_checker_completes_it_in(self):
        """Overlapping PSCW and lock epochs to one target: the DAG draws
        the Put into the epoch ``epochs.py``'s rule names — the lock
        epoch [4..8] — not the one that happens to be listed first."""
        from tests.core.test_epochs import overlapping_epochs

        pre, dag = dag_for(overlapping_epochs, 2)
        put = event_node(0, seq_of(pre, 0, "Put"))
        opened = {u for u, _v, kind in dag.in_edges(put, data="kind")
                  if kind == "epoch"}
        closed = {v for _u, v, kind in dag.out_edges(put, data="kind")
                  if kind == "epoch"}
        assert opened == {event_node(0, seq_of(pre, 0, "Win_lock"))}
        assert closed == {event_node(0, seq_of(pre, 0, "Win_unlock"))}
        assert not dag.has_edge(event_node(0, seq_of(pre, 0, "Win_start")),
                                put)


class TestShape:
    def test_acyclic(self):
        def app(mpi):
            mpi.barrier()
            if mpi.rank == 0:
                mpi.send("x", dest=1)
            elif mpi.rank == 1:
                mpi.recv(source=0)
            mpi.barrier()

        pre, dag = dag_for(app, 3)
        assert nx.is_directed_acyclic_graph(dag)

    def test_every_event_is_a_vertex(self):
        def app(mpi):
            mpi.barrier()
            mpi.comm_rank()

        pre, dag = dag_for(app, 2)
        for rank in range(2):
            for event in pre.events[rank]:
                assert dag.has_node(event_node(rank, event.seq))

    def test_rma_hangs_between_epoch_boundaries(self):
        def app(mpi):
            buf = mpi.alloc("buf", 2, datatype=INT)
            win = mpi.win_create(buf)
            win.fence()
            if mpi.rank == 0:
                win.put(buf, target=1)
                _ = buf[0]
            win.fence()
            win.free()

        pre, dag = dag_for(app, 2)
        put = event_node(0, seq_of(pre, 0, "Put"))
        fence_open = event_node(0, seq_of(pre, 0, "Win_fence", 0))
        fence_close = event_node(0, seq_of(pre, 0, "Win_fence", 1))
        load = event_node(0, mem_seq(pre, 0, "load"))
        # ordered after the opening fence (via its sync node) and before
        # the closing fence call
        assert happens_before(dag, fence_open, put)
        assert dag.has_edge(put, fence_close)
        # the defining property: the Put is NOT ordered with the local load
        assert concurrent(dag, put, load)
        assert happens_before(dag, fence_open, load)


class TestFigure34:
    """The paper's running example: three ranks, two concurrent Puts into
    P1's window, local store at P1, barriers separating regions A/B."""

    @staticmethod
    def figure3(mpi):
        wbuf = mpi.alloc("wbuf", 8, datatype=DOUBLE)
        src = mpi.alloc("src", 2, datatype=DOUBLE)
        win = mpi.win_create(wbuf)
        win.fence()
        if mpi.rank == 0:
            win.put(src, target=1, target_disp=0, origin_count=2)  # op a
        if mpi.rank == 2:
            win.put(src, target=1, target_disp=1, origin_count=2)  # op c
        if mpi.rank == 1:
            wbuf[1] = -1.0                                         # op e
        win.fence()                                       # region boundary
        if mpi.rank == 2:
            win.put(src, target=0, target_disp=0, origin_count=2)
        win.fence()
        win.free()

    def test_concurrent_puts_unordered(self):
        pre, dag = dag_for(self.figure3, 3)
        op_a = event_node(0, seq_of(pre, 0, "Put"))
        op_c = event_node(2, seq_of(pre, 2, "Put", 0))
        assert concurrent(dag, op_a, op_c)

    def test_put_vs_local_store_unordered(self):
        pre, dag = dag_for(self.figure3, 3)
        op_a = event_node(0, seq_of(pre, 0, "Put"))
        op_e = event_node(1, mem_seq(pre, 1, "store"))
        assert concurrent(dag, op_a, op_e)

    def test_fence_separates_regions(self):
        pre, dag = dag_for(self.figure3, 3)
        op_a = event_node(0, seq_of(pre, 0, "Put"))       # region A
        op_d = event_node(2, seq_of(pre, 2, "Put", 1))    # region B
        assert happens_before(dag, op_a, op_d)
        assert not happens_before(dag, op_d, op_a)


class TestSendRecvEdges:
    def test_directed_edge_only(self):
        def app(mpi):
            if mpi.rank == 0:
                mpi.send("x", dest=1)
            else:
                mpi.recv(source=0)

        pre, dag = dag_for(app, 2)
        send = event_node(0, seq_of(pre, 0, "Send"))
        recv = event_node(1, seq_of(pre, 1, "Recv"))
        assert happens_before(dag, send, recv)
        assert not happens_before(dag, recv, send)


class TestRender:
    def test_ascii_render_topological(self):
        pre, dag = dag_for(lambda mpi: mpi.barrier(), 2)
        from repro.core.dag import render_ascii
        text = render_ascii(dag)
        assert "Barrier" in text
