"""The RMA operation compatibility matrix (the paper's Table I).

The matrix classifies every pair of operation kinds touching the same
window at a target process:

* ``BOTH``   — both overlapping and nonoverlapping combinations are legal;
* ``NONOV``  — only nonoverlapping combinations are legal (overlap is a
  memory consistency error);
* ``ERROR``  — the combination is erroneous even without byte overlap
  (MPI-2.2: a local store may not be combined with any concurrent Put or
  Accumulate on the same window, period — section IV-C-4's special rule).

The matrix here is the symmetric MPI-2.2/3.0 table; the copy printed in
the paper contains two asymmetric cells (Load/Acc and Store/Acc) that
contradict both its own prose and the MPI specification, so symmetry is
restored per the standard (see DESIGN.md).

The one exception: two ``Accumulate`` operations are compatible *even when
overlapping* iff they use the same reduction op and the same basic
datatype (they commute); otherwise they are NONOV.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

# access kinds
LOAD = "load"
STORE = "store"
GET = "get"
PUT = "put"
ACC = "acc"

KINDS = (LOAD, STORE, GET, PUT, ACC)

# verdicts
BOTH = "BOTH"
NONOV = "NONOV"
ERROR = "ERROR"

_HALF_TABLE: Dict[Tuple[str, str], str] = {
    (LOAD, LOAD): BOTH,
    (LOAD, STORE): BOTH,
    (LOAD, GET): BOTH,
    (LOAD, PUT): NONOV,
    (LOAD, ACC): NONOV,
    (STORE, STORE): BOTH,
    (STORE, GET): NONOV,
    (STORE, PUT): ERROR,
    (STORE, ACC): ERROR,
    (GET, GET): BOTH,
    (GET, PUT): NONOV,
    (GET, ACC): NONOV,
    (PUT, PUT): NONOV,
    (PUT, ACC): NONOV,
    (ACC, ACC): BOTH,  # refined by the same-op/same-type exception
}

#: The full symmetric compatibility matrix (MPI-2.2 / MPI-3 *separate*
#: memory model — the paper's Table I).
TABLE: Dict[Tuple[str, str], str] = {}
for (_a, _b), _v in _HALF_TABLE.items():
    TABLE[(_a, _b)] = _v
    TABLE[(_b, _a)] = _v

# memory models (MPI-3 section 11.4): the paper works in the *separate*
# model; under the *unified* model public and private window copies are
# identical, so a local store merely races with overlapping RMA updates
# instead of corrupting the whole window — the ERROR cells soften to NONOV
MODEL_SEPARATE = "separate"
MODEL_UNIFIED = "unified"

UNIFIED_TABLE: Dict[Tuple[str, str], str] = {
    key: (NONOV if value == ERROR else value)
    for key, value in TABLE.items()
}

_TABLES = {MODEL_SEPARATE: TABLE, MODEL_UNIFIED: UNIFIED_TABLE}


def table_entry(a: str, b: str, model: str = MODEL_SEPARATE) -> str:
    """Raw Table-I cell for a pair of access kinds under a memory model."""
    try:
        table = _TABLES[model]
    except KeyError:
        raise KeyError(f"unknown memory model {model!r}") from None
    try:
        return table[(a, b)]
    except KeyError:
        raise KeyError(f"unknown access kind pair ({a!r}, {b!r})") from None


def accumulate_exception(a_op: Optional[str], a_base: Optional[str],
                         b_op: Optional[str], b_base: Optional[str]) -> bool:
    """True iff two accumulates commute (same op, same basic datatype)."""
    return (a_op is not None and a_op == b_op
            and a_base is not None and a_base == b_base)


def compat_verdict(a_kind: str, b_kind: str, overlapping: bool,
                   acc_same: bool = False,
                   model: str = MODEL_SEPARATE) -> Optional[str]:
    """Classify a concurrent pair of accesses.

    Returns ``None`` when the combination is permitted, otherwise the
    violated rule (``NONOV`` or ``ERROR``).
    """
    cell = table_entry(a_kind, b_kind, model)
    if a_kind == ACC and b_kind == ACC:
        cell = BOTH if acc_same else NONOV
    if cell == ERROR:
        return ERROR
    if cell == NONOV and overlapping:
        return NONOV
    return None


#: the origin-buffer rule of section IV-C-3 (a local access to a buffer
#: of an operation still in flight): the rule of a finding that no cell
#: of the table decides
ORIGIN = "ORIGIN"

#: the memory models and the rules as codes (indices into these), for
#: kernels that filter candidate pairs as arrays
MODELS = (MODEL_SEPARATE, MODEL_UNIFIED)
VERDICTS = (None, NONOV, ERROR, ORIGIN)

#: :func:`compat_verdict` tabulated: ``VERDICT_LOOKUP[model, a, b,
#: overlapping, acc_same]`` is the code of its verdict for kind codes
#: ``a`` / ``b`` (indices into :data:`KINDS`) — generated from the
#: function at import, so there is no second statement of Table I to
#: keep in step with the first
VERDICT_LOOKUP = np.array(
    [[[[[VERDICTS.index(compat_verdict(a, b, overlapping, acc_same, model))
         for acc_same in (False, True)]
        for overlapping in (False, True)]
       for b in KINDS]
      for a in KINDS]
     for model in MODELS], dtype=np.int8)


def format_table() -> str:
    """The separate-model :data:`TABLE` as text, ``BOTH*`` marking the
    accumulate exception: what ``mc-checker table1`` prints and the
    block ``docs/memory-model.md`` shows."""
    width = max(len(kind) for kind in KINDS) + 2
    rows = [[""] + [kind.upper() for kind in KINDS]] + [
        [a.upper()] + [TABLE[(a, b)] + ("*" if a == b == ACC else "")
                       for b in KINDS]
        for a in KINDS]
    return "\n".join("".join(cell.ljust(width) for cell in row).rstrip()
                     for row in rows)
