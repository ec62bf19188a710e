"""Exhaustive tests of the Table I compatibility matrix (experiment E1)."""

import pathlib
import re

import pytest

from repro.cli import main
from repro.core.compat import (
    ACC, BOTH, ERROR, GET, KINDS, LOAD, NONOV, PUT, STORE, TABLE,
    accumulate_exception, compat_verdict, format_table, table_entry,
)

MEMORY_MODEL_DOC = (pathlib.Path(__file__).resolve().parents[2] / "docs"
                    / "memory-model.md")

#: The full expected matrix, row-major over (load, store, get, put, acc) —
#: the symmetric MPI-2.2 table the paper's Table I prints.
EXPECTED = {
    (LOAD, LOAD): BOTH, (LOAD, STORE): BOTH, (LOAD, GET): BOTH,
    (LOAD, PUT): NONOV, (LOAD, ACC): NONOV,
    (STORE, STORE): BOTH, (STORE, GET): NONOV, (STORE, PUT): ERROR,
    (STORE, ACC): ERROR,
    (GET, GET): BOTH, (GET, PUT): NONOV, (GET, ACC): NONOV,
    (PUT, PUT): NONOV, (PUT, ACC): NONOV,
    (ACC, ACC): BOTH,
}


class TestMatrix:
    def test_all_25_cells(self):
        for a in KINDS:
            for b in KINDS:
                expected = EXPECTED.get((a, b)) or EXPECTED.get((b, a))
                assert table_entry(a, b) == expected, (a, b)

    def test_symmetry(self):
        for a in KINDS:
            for b in KINDS:
                assert TABLE[(a, b)] == TABLE[(b, a)]

    def test_exactly_two_error_pairs(self):
        errors = {frozenset(k) for k, v in TABLE.items() if v == ERROR}
        assert errors == {frozenset({STORE, PUT}), frozenset({STORE, ACC})}

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            table_entry("load", "prefetch")


class TestVerdicts:
    def test_both_never_conflicts(self):
        assert compat_verdict(LOAD, LOAD, overlapping=True) is None
        assert compat_verdict(LOAD, GET, overlapping=True) is None

    def test_nonov_conflicts_only_on_overlap(self):
        assert compat_verdict(LOAD, PUT, overlapping=True) == NONOV
        assert compat_verdict(LOAD, PUT, overlapping=False) is None
        assert compat_verdict(PUT, PUT, overlapping=True) == NONOV

    def test_error_conflicts_regardless_of_overlap(self):
        assert compat_verdict(STORE, PUT, overlapping=False) == ERROR
        assert compat_verdict(STORE, ACC, overlapping=False) == ERROR
        assert compat_verdict(ACC, STORE, overlapping=True) == ERROR

    def test_acc_acc_same_op_type_permitted(self):
        assert compat_verdict(ACC, ACC, overlapping=True,
                              acc_same=True) is None

    def test_acc_acc_different_op_conflicts_on_overlap(self):
        assert compat_verdict(ACC, ACC, overlapping=True,
                              acc_same=False) == NONOV
        assert compat_verdict(ACC, ACC, overlapping=False,
                              acc_same=False) is None


class TestAccumulateException:
    def test_same_op_same_base(self):
        assert accumulate_exception("SUM", "INT", "SUM", "INT")

    def test_different_op(self):
        assert not accumulate_exception("SUM", "INT", "MAX", "INT")

    def test_different_base(self):
        assert not accumulate_exception("SUM", "INT", "SUM", "DOUBLE")

    def test_missing_info_not_exempt(self):
        assert not accumulate_exception(None, None, None, None)
        assert not accumulate_exception("SUM", None, "SUM", None)


class TestPrintedTable:
    """Table I is printed from one place: ``format_table`` over
    ``TABLE``, by the CLI and in the memory-model note."""

    def test_doc_block_is_the_formatter_output(self):
        doc = MEMORY_MODEL_DOC.read_text()
        block = re.search(r"## The compatibility matrix \(Table I\).*?"
                          r"```\n(.*?)\n```", doc, re.S)
        assert block is not None, "the Table I block left the doc"
        assert block.group(1) == format_table()

    def test_cli_prints_the_formatter_output(self, capsys):
        assert main(["table1"]) == 0
        assert format_table() in capsys.readouterr().out

    def test_rows_read_the_table(self):
        lines = format_table().splitlines()
        assert lines[0].split() == [kind.upper() for kind in KINDS]
        for a, line in zip(KINDS, lines[1:]):
            assert line.split() == [a.upper()] + [
                TABLE[(a, b)] + ("*" if a == b == ACC else "")
                for b in KINDS]
