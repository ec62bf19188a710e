"""Shared helpers for DN-Analyzer tests: run apps, get pipeline objects."""

import pytest

from repro.core.clocks import ConcurrencyOracle
from repro.core.epochs import EpochIndex
from repro.core.matching import match_synchronization
from repro.core.preprocess import preprocess
from repro.core.regions import RegionIndex
from repro.profiler.session import profile_run
from tests.reference.pairwise import build_access_model


class Pipeline:
    """All analysis stages for one profiled run, built lazily."""

    def __init__(self, app, nranks, params=None, **run_kwargs):
        run_kwargs.setdefault("delivery", "random")
        self.run = profile_run(app, nranks, params=params, **run_kwargs)
        self.pre = preprocess(self.run.traces)
        self.matches = match_synchronization(self.pre)
        self.oracle = ConcurrencyOracle(self.pre, self.matches)
        self.epochs = EpochIndex(self.pre)
        self.model = build_access_model(self.pre, self.epochs)
        self.regions = RegionIndex(self.pre, self.matches)


@pytest.fixture
def pipeline():
    return Pipeline
