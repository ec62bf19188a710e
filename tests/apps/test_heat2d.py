"""heat2d on GlobalArray2D: physics + the read/write phase race."""

import numpy as np
import pytest

from repro import run_check
from repro.apps.heat2d import heat2d
from repro.simmpi import run_app


def reference(rows, cols, steps, alpha=0.2):
    field = np.zeros((rows, cols))
    field[1, :] = 100.0
    for _ in range(steps):
        padded = np.vstack([field[:1], field, field[-1:]])
        new = field.copy()
        lap = (padded[:-2, 1:-1] + padded[2:, 1:-1]
               + padded[1:-1, :-2] + padded[1:-1, 2:]
               - 4.0 * padded[1:-1, 1:-1])
        new[:, 1:-1] += alpha * lap
        field = new
    return field


class TestPhysics:
    @pytest.mark.parametrize("nranks", [1, 2, 3])
    def test_matches_serial_reference(self, nranks):
        rows, cols, steps = 9, 6, 3
        results = run_app(heat2d, nranks=nranks,
                          params=dict(rows=rows, cols=cols, steps=steps),
                          delivery="lazy")
        stacked = np.vstack(results)
        assert np.allclose(stacked, reference(rows, cols, steps))

    def test_heat_spreads(self):
        results = run_app(heat2d, nranks=2,
                          params=dict(rows=8, cols=6, steps=4))
        stacked = np.vstack(results)
        assert stacked[2, 2] > 0.0  # diffusion reached row 2 interior


class TestChecker:
    def test_clean(self):
        report = run_check(heat2d, nranks=3,
                           params=dict(rows=9, cols=6, steps=2),
                           delivery="random")
        assert not report.findings, report.format()

    def test_missing_phase_sync_flagged(self):
        report = run_check(heat2d, nranks=3,
                           params=dict(rows=9, cols=6, steps=2,
                                       buggy=True),
                           delivery="random")
        assert report.has_errors
        pairs = [{f.a.kind, f.b.kind} for f in report.findings]
        assert any("put" in p and ("get" in p or "load" in p)
                   for p in pairs)
