"""ST-Analyzer taint-analysis tests (section IV-A)."""

import copy
import dataclasses
import functools
import importlib
import inspect
import os
import pickle
import pkgutil
import sys
import textwrap

import pytest

import repro.apps
from repro.apps.registry import BUG_CASES
from repro.profiler.session import profile_run
from repro.stanalyzer import (
    InstrumentationReport, analyze_app, analyze_module, analyze_source,
    unwrap_app,
)


def analyze(src):
    return analyze_source(textwrap.dedent(src))


class TestSeeds:
    def test_window_buffer_is_relevant(self):
        rep = analyze("""
            def main(mpi):
                grid = mpi.alloc("grid", 16)
                win = mpi.win_create(grid)
        """)
        assert rep.is_relevant("main", "grid")
        assert rep.buffer_names == {"grid"}

    def test_put_origin_is_relevant(self):
        rep = analyze("""
            def main(mpi, win):
                tmp = mpi.alloc("tmp", 4)
                win.put(tmp, target=1)
        """)
        assert rep.is_relevant("main", "tmp")
        assert "tmp" in rep.buffer_names

    def test_get_and_accumulate_origins(self):
        rep = analyze("""
            def main(mpi, win):
                a = mpi.alloc("a", 4)
                b = mpi.alloc("b", 4)
                win.get(a, target=1)
                win.accumulate(b, target=1, op="SUM")
        """)
        assert rep.buffer_names == {"a", "b"}

    def test_keyword_origin_buf(self):
        rep = analyze("""
            def main(mpi, win):
                x = mpi.alloc("x", 4)
                win.put(origin_buf=x, target=1)
        """)
        assert "x" in rep.buffer_names

    def test_irrelevant_buffer_excluded(self):
        rep = analyze("""
            def main(mpi, win):
                used = mpi.alloc("used", 4)
                scratch = mpi.alloc("scratch", 4)
                win.put(used, target=1)
        """)
        assert "scratch" not in rep.buffer_names
        assert not rep.is_relevant("main", "scratch")


class TestPropagation:
    def test_through_assignment(self):
        rep = analyze("""
            def main(mpi, win):
                a = mpi.alloc("a", 4)
                alias = a
                win.put(alias, target=1)
        """)
        assert "a" in rep.buffer_names

    def test_assignment_is_symmetric(self):
        # label flows against assignment direction too (aliasing)
        rep = analyze("""
            def main(mpi, win):
                a = mpi.alloc("a", 4)
                win.put(a, target=1)
                b = a
        """)
        assert rep.is_relevant("main", "b")

    def test_through_call_argument(self):
        rep = analyze("""
            def helper(dst):
                dst[0] = 1

            def main(mpi, win):
                grid = mpi.alloc("grid", 4)
                win.win_create(grid)
                helper(grid)
        """)
        assert rep.is_relevant("helper", "dst")

    def test_rma_inside_callee_taints_caller(self):
        rep = analyze("""
            def sender(win, buf):
                win.put(buf, target=1)

            def main(mpi, win):
                data = mpi.alloc("data", 4)
                sender(win, data)
        """)
        assert "data" in rep.buffer_names

    def test_through_return_value(self):
        rep = analyze("""
            def make(mpi):
                buf = mpi.alloc("buf", 4)
                return buf

            def main(mpi, win):
                mine = make(mpi)
                win.put(mine, target=1)
        """)
        assert "buf" in rep.buffer_names

    def test_through_keyword_call_argument(self):
        rep = analyze("""
            def helper(win, dst=None):
                win.get(dst, target=0)

            def main(mpi, win):
                out = mpi.alloc("out", 4)
                helper(win, dst=out)
        """)
        assert "out" in rep.buffer_names

    def test_through_function_alias(self):
        rep = analyze("""
            def reader(win, out):
                win.get(out, target=0)

            def writer(win, out):
                win.put(out, target=0)

            def main(mpi, win, flag):
                buf = mpi.alloc("buf", 4)
                fn = reader if flag else writer
                fn(win, buf)
        """)
        assert "buf" in rep.buffer_names

    def test_tuple_assignment(self):
        rep = analyze("""
            def main(mpi, win):
                a = mpi.alloc("a", 4)
                b = mpi.alloc("b", 4)
                x, y = a, b
                win.put(x, target=1)
        """)
        assert "a" in rep.buffer_names
        assert "b" not in rep.buffer_names

    def test_transitive_chain(self):
        rep = analyze("""
            def main(mpi, win):
                a = mpi.alloc("a", 4)
                b = a
                c = b
                win.put(c, target=1)
        """)
        assert "a" in rep.buffer_names


class TestConservativeness:
    def test_branch_insensitive(self):
        # only one branch passes the buffer to put, but both aliases are
        # marked — "insensitive to branch and loop" (section IV-A)
        rep = analyze("""
            def main(mpi, win, cond):
                a = mpi.alloc("a", 4)
                if cond:
                    alias = a
                else:
                    alias = mpi.alloc("other", 4)
                win.put(alias, target=1)
        """)
        assert {"a", "other"} <= rep.buffer_names

    def test_scope_separation(self):
        # same variable name in an unrelated function is NOT marked
        rep = analyze("""
            def main(mpi, win):
                buf = mpi.alloc("buf", 4)
                win.put(buf, target=1)

            def unrelated(mpi):
                buf = mpi.alloc("unrelated_buf", 4)
                return buf
        """)
        assert "unrelated_buf" not in rep.buffer_names


class TestReportShape:
    def test_seeds_recorded(self):
        rep = analyze("""
            def main(mpi, win):
                a = mpi.alloc("a", 4)
                win.put(a, target=1)
        """)
        assert ("main", "a") in rep.seeds

    def test_alloc_sites_include_irrelevant(self):
        rep = analyze("""
            def main(mpi):
                a = mpi.alloc("a", 4)
        """)
        assert [(s[0], s[1], s[2]) for s in rep.alloc_sites] == \
            [("main", "a", "a")]

    def test_summary_mentions_buffers(self):
        rep = analyze("""
            def main(mpi, win):
                z = mpi.alloc("zeta", 4)
                win.put(z, target=1)
        """)
        assert "zeta" in rep.summary()


class TestRealApps:
    def test_emulate_module(self):
        from repro.apps import emulate
        from repro.stanalyzer import analyze_module
        rep = analyze_module(emulate)
        assert {"page", "out", "src"} <= rep.buffer_names

    def test_lu_excludes_local_block(self):
        from repro.apps import lu
        from repro.stanalyzer import analyze_module
        rep = analyze_module(lu)
        assert {"pivot", "row_buf"} <= rep.buffer_names
        assert "a" not in rep.buffer_names  # never an RMA argument


def _origin_store_app(mpi, n=4):
    """The intra-epoch class of Fig. 2a: a store to a Put's origin
    buffer inside the epoch."""
    src = mpi.alloc("src", n)
    win_buf = mpi.alloc("win_buf", n)
    win = mpi.win_create(win_buf)
    win.fence()
    if mpi.rank == 0:
        win.put(src, target=1)
        src[0] = 1.0
    win.fence()
    win.free()


def _logged(fn):
    @functools.wraps(fn)
    def wrapper(mpi, **params):
        return fn(mpi, **params)
    return wrapper


class _CallableApp:
    def __call__(self, mpi):
        return _origin_store_app(mpi, n=8)


#: every way of handing the same application to the analyzer
WRAPPED_APPS = {
    "plain": _origin_store_app,
    "partial": functools.partial(_origin_store_app, n=8),
    "partial-of-partial": functools.partial(
        functools.partial(_origin_store_app, n=8), n=6),
    "wraps": _logged(_origin_store_app),
    "partial-of-wraps": functools.partial(_logged(_origin_store_app), n=8),
    "instance": _CallableApp(),
    "lambda": lambda mpi: _origin_store_app(mpi, n=8),
}


class TestWrappedApps:
    """``inspect.getmodule(partial(app))`` is :mod:`functools`: analysing
    that module instrumented nothing, and the findings went with it."""

    @pytest.mark.parametrize("how", WRAPPED_APPS)
    def test_analysed_as_the_module_that_defines_the_app(self, how):
        rep = analyze_app(WRAPPED_APPS[how])
        assert sorted(rep.buffer_names) == ["src", "win_buf"]

    def test_unwrap_app_peels_every_layer(self):
        for how in ("partial", "partial-of-partial", "wraps",
                    "partial-of-wraps"):
            assert unwrap_app(WRAPPED_APPS[how]) is _origin_store_app
        instance = WRAPPED_APPS["instance"]
        assert unwrap_app(instance) is instance


_SEEDED = """
def main(mpi):
    a = mpi.alloc("a", 4)
    b = mpi.alloc("b", 4)
    win = mpi.win_create(a)
"""


def _uncached(module):
    return analyze_source.__wrapped__(inspect.getsource(module),
                                      filename=module.__file__)


def _rank_files(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


class TestMemo:
    """The analysis is a pure function of the program text, run once
    per text like the paper's compile-time pass."""

    def test_same_text_same_object(self):
        assert analyze_source(_SEEDED) is analyze_source(_SEEDED)
        assert analyze_app(_origin_store_app) is \
            analyze_app(WRAPPED_APPS["partial"])

    def test_edited_module_is_analysed_again(self, tmp_path, monkeypatch):
        path = tmp_path / "memo_edit_app.py"
        path.write_text(_SEEDED)
        monkeypatch.syspath_prepend(str(tmp_path))
        module = importlib.import_module("memo_edit_app")
        try:
            before = analyze_module(module)
            assert before.buffer_names == {"a"}
            path.write_text(_SEEDED + "    win.put(b, target=1)\n")
            after = analyze_module(module)
        finally:
            del sys.modules["memo_edit_app"]
        assert after.buffer_names == {"a", "b"}
        assert before.buffer_names == {"a"}   # the old report is intact

    def test_syntax_error_raises_every_call(self):
        misses = analyze_source.cache_info().misses
        for _ in range(3):
            with pytest.raises(SyntaxError):
                analyze_source("def main(mpi:\n")
        assert analyze_source.cache_info().misses == misses + 3

    def test_report_is_immutable(self):
        rep = analyze_source(_SEEDED)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.buffer_names = frozenset()
        for frozen in (rep.buffer_names, rep.seeds,
                       rep.relevant_vars["main"]):
            with pytest.raises(AttributeError):
                frozen.add("x")
        with pytest.raises(TypeError):
            rep.relevant_vars["main"] = frozenset()
        with pytest.raises(AttributeError):
            rep.alloc_sites.append(("main", "c", "c", 1))
        assert analyze_source(_SEEDED).buffer_names == {"a"}

    def test_constructor_freezes_plain_containers(self):
        rep = InstrumentationReport(relevant_vars={"main": {"a"}},
                                    buffer_names={"a"},
                                    seeds={("main", "a")},
                                    alloc_sites=[("main", "a", "a", 3)])
        assert isinstance(rep.buffer_names, frozenset)
        assert isinstance(rep.relevant_vars["main"], frozenset)
        assert rep.alloc_sites == (("main", "a", "a", 3),)
        assert rep == InstrumentationReport(
            relevant_vars={"main": frozenset({"a"})},
            buffer_names=frozenset({"a"}), seeds={("main", "a")},
            alloc_sites=(("main", "a", "a", 3),))
        assert pickle.loads(pickle.dumps(rep)) == rep == copy.deepcopy(rep)

    @pytest.mark.parametrize("name", sorted(
        info.name for info in pkgutil.iter_modules(repro.apps.__path__)))
    def test_memoized_equals_uncached(self, name):
        module = importlib.import_module(f"repro.apps.{name}")
        memo, fresh = analyze_module(module), _uncached(module)
        for field in dataclasses.fields(InstrumentationReport):
            assert getattr(memo, field.name) == getattr(fresh, field.name)

    @pytest.mark.parametrize("buggy", [True, False],
                             ids=["buggy", "fixed"])
    @pytest.mark.parametrize("case", BUG_CASES, ids=lambda c: c.name)
    def test_profile_bytes_equal_fresh_report(self, case, buggy, tmp_path):
        fresh = _uncached(inspect.getmodule(unwrap_app(case.app)))
        for sub, report in (("memo", None), ("fresh", fresh)):
            profile_run(case.app, case.nranks, trace_dir=str(tmp_path / sub),
                        params=case.params(buggy), seed=1, report=report)
        assert _rank_files(tmp_path / "memo") == \
            _rank_files(tmp_path / "fresh")
