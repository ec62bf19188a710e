"""Concurrent-region extraction (section III-B, last paragraph).

Global synchronization events — collectives in which *every* rank
participates — partition the execution into sequentially ordered regions.
Two accesses in different regions are always ordered (through the
intervening global barrier), so detection only ever compares accesses
sharing a region; this is the truncation the paper uses "to improve the
efficiency of the analysis".

A nonblocking RMA operation whose epoch closes after a global cut (e.g. a
lock epoch spanning a barrier on another communicator — impossible for a
world barrier, but spans are handled generally) is a member of every
region its span intersects.

:class:`RegionIndex` is the cuts as arrays (``cuts``; ``bounds``, what
the engine and the shard plan read), written by one scatter of the
global matches' member rows.  ``regions`` is the same as objects, a
:class:`Region` built for the row that is indexed — the check asks for
none; the loop that built them all is in ``tests/reference/epochs.py``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.core.clocks import Span
from repro.core.matching import ROLE_MEMBER, MatchTable
from repro.core.preprocess import PreprocessedTrace
from repro.core.views import Views, remembered
from repro.util.errors import AnalysisError
from repro.util.intervals import grouped_searchsorted


@dataclass
class Region:
    """One concurrent region: per-rank exclusive (lo, hi) seq bounds."""

    index: int
    bounds: Dict[int, Tuple[int, int]]

    def contains_seq(self, rank: int, seq: int) -> bool:
        lo, hi = self.bounds[rank]
        return lo < seq < hi


class RegionIndex:
    """All concurrent regions plus span -> region lookup."""

    def __init__(self, pre: PreprocessedTrace, matches: MatchTable):
        self.nranks = nranks = pre.nranks
        glob = matches.is_global(nranks)
        # one (cuts x ranks) seq matrix: global collectives are totally
        # ordered, so sorting by rank 0 orders every column at once and
        # one diff pass checks that the cuts are monotone at every rank
        cut = np.cumsum(glob) - 1
        rows = np.flatnonzero(glob[matches.match]
                              & (matches.role == ROLE_MEMBER))
        mat = np.empty((int(glob.sum()), nranks), dtype=np.int64)
        mat[cut[matches.match[rows]], matches.rank[rows]] = matches.seq[rows]
        if len(mat) > 1:
            mat = mat[np.argsort(mat[:, 0], kind="stable")]
            if (np.diff(mat, axis=0) <= 0).any():
                raise AnalysisError(
                    "global synchronization cuts are not consistently "
                    "ordered across ranks — inconsistent trace")
        #: ``(nranks, n_cuts)``: each rank's cut seqs, ascending
        self.cuts = np.ascontiguousarray(mat.T)
        #: ``(n_regions + 1, nranks)``: row ``r`` is region ``r``'s lo seq
        #: at every rank, row ``r + 1`` its hi
        self.bounds = np.vstack([np.full((1, nranks), -1), mat,
                                 np.full((1, nranks), 1 << 62)])
        self.regions = Views(len(mat) + 1,
                             remembered(self._region, "region"))

    def _region(self, k: int) -> Region:
        """Region ``k`` as an object: the one place one is constructed."""
        return Region(index=k, bounds=dict(enumerate(zip(
            self.bounds[k].tolist(), self.bounds[k + 1].tolist()))))

    @cached_property
    def _cut_seqs(self) -> List[List[int]]:
        """``cuts`` as lists, for the scalar bisects."""
        return self.cuts.tolist()

    def __len__(self) -> int:
        return len(self.regions)

    def __iter__(self):
        return iter(self.regions)

    def region_of_seq(self, rank: int, seq: int) -> int:
        """Region index of a point event (cut events belong to no region;
        they are mapped to the region they open)."""
        return bisect_right(self._cut_seqs[rank], seq - 1)

    def regions_of_span(self, span: Span) -> range:
        """All region indices a span intersects."""
        first = bisect_right(self._cut_seqs[span.rank], span.start_seq - 1)
        last = bisect_left(self._cut_seqs[span.rank], span.end_seq)
        return range(first, min(last, len(self.regions) - 1) + 1)

    def regions_of_spans(self, rank: Union[int, np.ndarray],
                         start_seq: np.ndarray, end_seq: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`regions_of_span` for many spans, of one rank or each of
        its own: the first and the last region index each intersects
        (``last < first`` for a span that ends before it starts)."""
        n_cuts = self.cuts.shape[1]
        rank = np.broadcast_to(np.asarray(rank, dtype=np.int64),
                               start_seq.shape)
        # "cuts before seq" for the start, "cuts before end" for the end:
        # one search (a cut is an int: ``< end`` is ``<= end - 1``)
        at = grouped_searchsorted(
            np.repeat(np.arange(self.nranks), n_cuts), self.cuts.ravel(),
            np.concatenate([rank, rank]),
            np.concatenate([start_seq, end_seq]) - 1, side="right") \
            - np.concatenate([rank, rank]) * n_cuts
        return (at[:len(rank)],
                np.minimum(at[len(rank):], len(self.regions) - 1))
