"""Analysis objects on demand.

The check reads columns; an ``RMAOpView``, ``LocalAccess``, ``Epoch``,
``Region`` or ``SyncMatch`` exists for whoever looks at one — a finding,
a listing, a test — and is counted when it is built, as is every ``CallEvent`` the
call columns build (``CallColumns._build``: the registry calls of the
control pass, the calls behind a view), so "no object on a clean trace"
is a number (``analyzer_views_built_total{kind}``).
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from repro import obs
from repro.profiler.callcols import BUILT_HELP


def count_views(kind: str, n: int = 1) -> None:
    obs.count("analyzer_views_built_total", n, kind=kind, help=BUILT_HELP)


class Views(Sequence):
    """A sequence as long as its columns whose items ``view(k)`` builds
    when they are indexed."""

    def __init__(self, n: int, view: Callable[[int], object]):
        self._n = n
        self._view = view

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self._view(i) for i in range(*k.indices(self._n))]
        if k < 0:
            k += self._n
        if not 0 <= k < self._n:
            raise IndexError("view index out of range")
        return self._view(k)


def remembered(build: Callable[[int], object],
               kind: str) -> Callable[[int], object]:
    """``build`` called once per row: the object is kept — asking again
    returns the same one — and counted."""
    built: Dict[int, object] = {}

    def view(k: int):
        obj = built.get(k)
        if obj is None:
            obj = built[k] = build(k)
            count_views(kind)
        return obj
    return view
