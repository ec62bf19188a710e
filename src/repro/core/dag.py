"""The data-access DAG (Figure 4) — reference happens-before structure.

DN-Analyzer's production concurrency queries go through the vector-clock
oracle (:mod:`repro.core.clocks`); this module materializes the same
ordering as an explicit :class:`networkx.DiGraph` for visualization, small
traces, and differential testing of the oracle.

Graph shape, following the paper:

* every trace event is a vertex, labelled with its rank and parameters;
* vertices of one rank are chained in program order — **except**
  nonblocking RMA communication calls, which instead hang between their
  epoch's opening and closing synchronization vertices (they are unordered
  with respect to the epoch's other operations);
* each collective match contributes a synthetic vertex ``("sync", i)``:
  every member's call vertex points into it, and it points at each
  member's next program-order vertex — so anything before the collective
  at any rank precedes anything after it at any rank;
* directed matches add ``send -> recv``, ``post -> start``,
  ``complete -> wait`` edges.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.core.epochs import OPEN_ENDED, EpochIndex
from repro.core.matching import KIND_COLLECTIVE, SyncMatch
from repro.core.preprocess import PreprocessedTrace
from repro.profiler.events import CallEvent, MemEvent, RMA_COMM_CALLS

EventNode = Tuple[str, int, int]  # ("e", rank, seq)


def event_node(rank: int, seq: int) -> EventNode:
    return ("e", rank, seq)


def build_dag(pre: PreprocessedTrace, matches: List[SyncMatch],
              epoch_index: EpochIndex) -> nx.DiGraph:
    """Materialize the data-access DAG of a preprocessed trace set."""
    g = nx.DiGraph()

    # vertices + per-rank program-order chains (RMA comm calls excluded)
    chain_next: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for rank in range(pre.nranks):
        prev: Optional[int] = None
        for event in pre.events[rank]:
            is_rma_comm = (isinstance(event, CallEvent)
                           and event.fn in RMA_COMM_CALLS)
            label = (event.fn if isinstance(event, CallEvent)
                     else f"{event.access} {event.var}")
            g.add_node(event_node(rank, event.seq), rank=rank, label=label,
                       rma=is_rma_comm)
            if is_rma_comm:
                continue
            if prev is not None:
                g.add_edge(event_node(rank, prev),
                           event_node(rank, event.seq), kind="program")
                chain_next[(rank, prev)] = (rank, event.seq)
            prev = event.seq

    # synchronization edges; remember each member's synthetic sync node so
    # RMA ops opened by a collective can be ordered after the whole match
    member_sync: Dict[Tuple[int, int], Tuple[str, int]] = {}
    for i, match in enumerate(matches):
        if match.kind == KIND_COLLECTIVE:
            sync = ("sync", i)
            g.add_node(sync, label=match.fn, rank=-1, rma=False)
            for rank, seq in match.members.items():
                member_sync[(rank, seq)] = sync
                g.add_edge(event_node(rank, seq), sync, kind="sync")
                if match.exits:
                    continue  # nonblocking: the join lands at the Wait
                succ = chain_next.get((rank, seq))
                if succ is not None:
                    g.add_edge(sync, event_node(*succ), kind="sync")
            for rank, seq in match.exits.items():
                g.add_edge(sync, event_node(rank, seq), kind="sync")
        elif match.src is not None and match.dst is not None:
            g.add_edge(event_node(*match.src), event_node(*match.dst),
                       kind="sync")

    # RMA ops hang between their epoch boundaries; when the opening call is
    # a collective (fence), the op starts only after the match completes
    ops = [(rank, int(event.args["win"]), event.seq,
            int(event.args["target"]))
           for rank in range(pre.nranks) for event in pre.events[rank]
           if isinstance(event, CallEvent) and event.fn in RMA_COMM_CALLS]
    if ops:
        cols = epoch_index.columns
        epochs = epoch_index.enclosing_rows(
            *np.array(ops, dtype=np.int64).T)
        inside = epochs >= 0
        found = epochs[inside]
        for (rank, _win, seq, _target), open_seq, close_seq in zip(
                compress(ops, inside), cols.open_seq[found].tolist(),
                cols.close_seq[found].tolist()):
            node = event_node(rank, seq)
            g.add_edge(member_sync.get((rank, open_seq),
                                       event_node(rank, open_seq)),
                       node, kind="epoch")
            if close_seq != OPEN_ENDED:
                g.add_edge(node, event_node(rank, close_seq), kind="epoch")
    return g


def happens_before(g: nx.DiGraph, a: EventNode, b: EventNode) -> bool:
    """Reference reachability query (slow; differential testing only)."""
    if a == b:
        return True
    return nx.has_path(g, a, b)


def concurrent(g: nx.DiGraph, a: EventNode, b: EventNode) -> bool:
    return not happens_before(g, a, b) and not happens_before(g, b, a)


def render_ascii(g: nx.DiGraph) -> str:
    """Tiny topological rendering used by ``mc-checker dag``."""
    lines = []
    for node in nx.topological_sort(g):
        attrs = g.nodes[node]
        preds = ", ".join(str(p) for p in g.predecessors(node))
        lines.append(f"{node} [{attrs.get('label', '')}]"
                     + (f" <- {preds}" if preds else ""))
    return "\n".join(lines)


def render_dot(g: nx.DiGraph) -> str:
    """Graphviz DOT rendering of the data-access DAG, one cluster per
    rank — the layout of the paper's Figure 4."""
    lines = ["digraph mc_checker_dag {", "  rankdir=TB;",
             '  node [shape=box, fontsize=10];']
    by_rank: Dict[int, List] = {}
    for node, attrs in g.nodes(data=True):
        by_rank.setdefault(attrs.get("rank", -1), []).append((node, attrs))

    def node_id(node) -> str:
        return "n_" + "_".join(str(part) for part in node)

    for rank in sorted(by_rank):
        members = by_rank[rank]
        if rank >= 0:
            lines.append(f"  subgraph cluster_rank{rank} {{")
            lines.append(f'    label="P{rank}";')
            indent = "    "
        else:
            indent = "  "
        for node, attrs in members:
            style = ', style=rounded' if attrs.get("rma") else ""
            shape = (', shape=ellipse, style=filled, fillcolor=lightgrey'
                     if node[0] == "sync" else style)
            lines.append(f'{indent}{node_id(node)} '
                         f'[label="{attrs.get("label", "")}"{shape}];')
        if rank >= 0:
            lines.append("  }")
    for src, dst, attrs in g.edges(data=True):
        style = ' [style=dashed]' if attrs.get("kind") == "sync" else ""
        lines.append(f"  {node_id(src)} -> {node_id(dst)}{style};")
    lines.append("}")
    return "\n".join(lines)
