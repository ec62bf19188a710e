"""Shared low-level substrate: errors, intervals, trace records, locations.

These utilities are deliberately dependency-light; every other subpackage
(:mod:`repro.simmpi`, :mod:`repro.profiler`, :mod:`repro.core`) builds on
them.
"""

from repro.util.errors import (
    ReproError,
    SimMPIError,
    DeadlockError,
    LivelockError,
    RMAUsageError,
    TraceFormatError,
    AnalysisError,
)
from repro.util.cachestore import CacheStore
from repro.util.hashing import (
    hash_file,
    hash_ranges,
    hash_strings,
    stable_hash,
)
from repro.util.intervals import Interval, IntervalSet, datamap_intervals
from repro.util.location import SourceLocation, capture_location
from repro.util.records import Record, encode_record, decode_record

__all__ = [
    "CacheStore",
    "hash_file",
    "hash_ranges",
    "hash_strings",
    "stable_hash",
    "ReproError",
    "SimMPIError",
    "DeadlockError",
    "LivelockError",
    "RMAUsageError",
    "TraceFormatError",
    "AnalysisError",
    "Interval",
    "IntervalSet",
    "datamap_intervals",
    "SourceLocation",
    "capture_location",
    "Record",
    "encode_record",
    "decode_record",
]
