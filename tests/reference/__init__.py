"""The paper's literal algorithms, kept as test oracles.

``matching`` holds the Algorithm-1 progress-counter walk, the naive
rescanning matcher and the per-rank dict walk; ``clocks`` the per-path
clock fixpoint; ``pairwise`` the object access model, the per-epoch
and per-region pair enumerations, the naive cross-process strawman and
:func:`~tests.reference.pairwise.check_pairwise`; ``epochs`` the
per-rank epoch state machine, the per-call walk of the epoch rule and
the ``Region`` loop; ``scheduler`` the wake-and-re-check token
scheduler.  Production (``src/repro``) imports none of it.
"""
