import contextlib
import functools
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import meanstream as ms
from meanstream import cli, core, families, myhill, state_io
from meanstream.cli import BLOCK_LINES, main
from meanstream.errors import (BudgetExceeded, DomainError, EmptyStateError,
                               FamilyMismatch, InsufficientData,
                               InvalidDescriptor, NumericalFailure, ParseError)
from inputs import all_families


def run_cli(argv, stdin="", monkeypatch=None, capsys=None):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _rows(n, at=None, cell=None):
    """CSV rows i,1.5i for i = 1..n, row number at replaced by cell."""
    return "".join(cell if i == at else f"{i},{i * 1.5}\n"
                   for i in range(1, n + 1))


# csv.reader refuses NUL before Python 3.11, and from 3.13 on words its
# refusal of a line end inside an unquoted cell otherwise
_NUL_REFUSED = (2, "", "error: line 6: line contains NUL\n")
_NUL_IN_VALUE = _NUL_REFUSED if sys.version_info < (3, 11) else (
    2, "", "error: line 6: cannot parse ['5', '1\\x002']\n")
_NUL_IN_OTHER_CELL = _NUL_REFUSED if sys.version_info < (3, 11) else (
    0, "6.8888888888888893\n", "")
_LONE_CR = (2, "", "error: line 6: new-line character seen in unquoted field"
            " - do you need to open the file " + (
                "with newline=''?\n" if sys.version_info >= (3, 13)
                else "in universal-newline mode?\n"))

# (id, --column, "file" or "stdin", input, (exit code, stdout, stderr)) of
# power(1) with four lines per block.  The outcomes are those of reading
# every CSV block with csv.reader and re-splitting every plain block with
# str.splitlines, as eval did before it took quote-free CSV blocks and
# plain ASCII blocks without them
BLOCK_CASES = [
    ("csv-quote-first-block", "value", "file",
     "id,value\n" + _rows(10, 2, '"b",3\n'),
     (0, '8.25\n', '')),
    ("csv-quote-middle-block", "value", "file",
     "id,value\n" + _rows(14, 6, 'x,"6.5"\n'),
     (0, '11.071428571428571\n', '')),
    ("csv-quote-last-block", "value", "file",
     "id,value\n" + _rows(14, 13, '"m",7\n'),
     (0, '10.357142857142858\n', '')),
    ("csv-quoted-newline-across-blocks", "value", "file",
     "id,value\n" + _rows(10, 4, '"a\nb",2\n'),
     (0, '7.8499999999999996\n', '')),
    ("csv-quoted-newline-then-bad-row", "value", "file",
     "id,value\n" + _rows(3) + '"a\nb",2\n' + _rows(6, 5, "9,zz\n"),
     (2, '', "error: line 11: cannot parse ['9', 'zz']\n")),
    ("csv-quoted-header", "value", "file",
     '"id","value"\n' + _rows(9),
     (0, '7.5\n', '')),
    ("csv-header-with-quoted-newline", "value", "file",
     '"i\nd",value\n' + _rows(9, 7, "7,bad\n"),
     (2, '', "error: line 9: cannot parse ['7', 'bad']\n")),
    # witnesses: both said line 3, where bad,3 is on line 4
    ("csv-header-with-quoted-newline-short", "value", "file",
     'value,"i\nd"\n1,2\nbad,3\n',
     (2, '', "error: line 4: cannot parse ['bad', '3']\n")),
    ("csv-quoted-newline-first-row", "value", "file",
     'value,id\n"1\n",2\nbad,3\n',
     (2, '', "error: line 4: cannot parse ['bad', '3']\n")),
    ("csv-quoted-first-row-index", "1", "stdin",
     '"a",1\n' + _rows(9),
     (0, '7.5\n', '')),
    ("csv-unclosed-quote", "value", "file",
     "id,value\n" + _rows(6) + '"open,1\n2,3\n',
     (2, '', "error: line 8: cannot parse ['open,1\\n2,3\\n']\n")),
    ("csv-hash-row-ends", "value", "file",
     "id,value\n" + _rows(9, 6, " # ,5\n"),
     (0, '4.5\n', '')),
    ("csv-hash-in-cells", "value", "file",
     "id,value\n" + _rows(9, 2, "a#b,2\n").replace("5,7.5", "5,7.5#"),
     (2, '', "error: line 6: cannot parse ['5', '7.5#']\n")),
    ("csv-hash-first-cell-later-block", "value", "stdin",
     "id,value\n" + _rows(9, 8, "#,1\n"),
     (0, '6\n', '')),
    ("csv-blank-rows", "value", "file",
     "id,value\n" + _rows(9, 3, "\n").replace("6,9.0\n", "6,9.0\n\n  \n"),
     (0, '7.875\n', '')),
    ("csv-blank-rows-one-column", "v", "file",
     "v\n1\n\n2\n \n3\n4\n5\n\n6\n",
     (0, '3.5\n', '')),
    ("csv-short-row", "value", "file",
     "id,value\n" + _rows(9, 7, "7\n"),
     (2, '', "error: line 8: cannot parse ['7']\n")),
    ("csv-long-rows", "value", "file",
     "id,value\n" + _rows(9, 2, "2,3,4\n").replace("8,12.0", "8,12.0,x,y"),
     (0, '7.5\n', '')),
    ("csv-ragged-width-sum-equal", "value", "stdin",
     "id,value\n1\n2,3,4\n5,6\n7,8\n9,10\n",
     (2, '', "error: line 2: cannot parse ['1']\n")),
    ("csv-bad-value", "value", "file",
     "id,value\n" + _rows(9, 6, "6,abc\n"),
     (2, '', "error: line 7: cannot parse ['6', 'abc']\n")),
    ("csv-nul-in-value", "value", "file",
     "id,value\n" + _rows(9, 5, "5,1\x002\n"),
     _NUL_IN_VALUE),
    ("csv-nul-in-other-cell", "value", "file",
     "id,value\n" + _rows(9, 5, "\x00,2\n"),
     _NUL_IN_OTHER_CELL),
    ("csv-field-over-limit", "value", "file",
     "id,value\n" + _rows(9, 6, "6," + "9" * 131073 + "\n"),
     (2, '', 'error: line 7: field larger than field limit (131072)\n')),
    ("csv-line-over-limit-fields-under", "value", "file",
     "id,value\n" + _rows(6, 3, "1" * 70000 + "," + "2" * 70000 + "\n"),
     (3, '', 'error: inf outside domain of power(p=1.0)\n')),
    ("csv-crlf-file", "value", "file",
     ("id,value\n" + _rows(9)).replace("\n", "\r\n"),
     (0, '7.5\n', '')),
    ("csv-crlf-stdin", "value", "stdin",
     ("id,value\n" + _rows(9)).replace("\n", "\r\n"),
     (0, '7.5\n', '')),
    ("csv-lone-cr-stdin", "value", "stdin",
     "id,value\n" + _rows(9, 5, "5,1\r6,2\n"),
     _LONE_CR),
    ("csv-cr-at-line-end-stdin", "value", "stdin",
     "id,value\n" + _rows(9, 5, "5,1\r\n"),
     (0, '6.7777777777777777\n', '')),
    ("csv-form-feed", "value", "file",
     "id,value\n" + _rows(9, 5, "5\x0c,\x0c2\n"),
     (0, '6.8888888888888893\n', '')),
    ("csv-non-ascii", "value", "file",
     "id,value\n" + _rows(9, 5, "\xe9,\u0663\n").replace("7,10.5", "7,\u2028 10.5"),
     (0, '7\n', '')),
    ("csv-no-final-newline", "value", "file",
     "id,value\n" + _rows(9)[:-1],
     (0, '7.5\n', '')),
    ("csv-no-final-newline-index-0", "0", "file",
     _rows(8)[:-1],
     (0, '4.5\n', '')),
    ("csv-headerless-index-0", "0", "stdin",
     _rows(9),
     (0, '5\n', '')),
    ("csv-headerless-index-minus-1", "-1", "stdin",
     _rows(9),
     (0, '7.5\n', '')),
    ("csv-headerless-index-out-of-range", "5", "stdin",
     _rows(9),
     (2, '', "error: line 1: cannot parse ['1', '1.5']\n")),
    ("csv-index-over-ragged", "2", "stdin",
     "1,2,3\n4,5,6\n7,8\n9,10,11\n12,13,14\n",
     (0, '9\n', '')),
    ("csv-blank-first-line", "0", "stdin",
     "\n1\n2\n",
     (0, '1.5\n', '')),
    ("csv-blank-first-line-named", "v", "stdin",
     "\nv\n1\n",
     (2, '', "error: column 'v' not found\n")),
    ("csv-header-only", "value", "file",
     "id,value\n",
     (4, '', 'error: empty input\n')),
    ("csv-empty", "value", "file",
     "",
     (4, '', 'error: empty input\n')),
    ("csv-domain-then-parse-error", "value", "file",
     "id,value\n" + _rows(9, 2, "2,-1\n").replace("8,12.0", "8,x"),
     (2, '', "error: line 9: cannot parse ['8', 'x']\n")),
    ("csv-domain-error", "value", "file",
     "id,value\n" + _rows(9, 7, "7,-1\n"),
     (3, '', 'error: -1.0 outside domain of power(p=1.0)\n')),
    ("csv-exact-blocks", "value", "file",
     "id,value\n" + _rows(8),
     (0, '6.75\n', '')),
    ("csv-width-3-middle", "b", "file",
     "a,b,c\n" + "".join(f"{i},{i},{i}\n" for i in range(1, 11)),
     (0, '5.5\n', '')),
    ("csv-duplicate-header-name", "v", "file",
     "v,v\n1,2\n3,4\n5,6\n7,8\n9,10\n",
     (0, '5\n', '')),
    ("csv-surrogate-like", "value", "stdin",
     "id,value\n" + _rows(6, 2, "2,\udcff\n"),
     (2, '', "error: line 3: cannot parse ['2', '\\udcff']\n")),
    ("lines-quote", None, "file",
     "1\n2\n3\n4\n5\n\"6\"\n7\n",
     (2, '', 'error: line 6: cannot parse \'"6"\'\n')),
    ("lines-hash-ends", None, "file",
     "1\n2\n3\n4\n5\n#\n99\n",
     (0, '3\n', '')),
    ("lines-hash-in-token", None, "file",
     "1\n2\n3\n4\n5\n6 #\n7\n",
     (2, '', "error: line 6: cannot parse '6 #'\n")),
    ("lines-commas-and-blanks", None, "file",
     "1,2\n\n 3 , 4 \n5\n,\n6\n7\n8\n9\n",
     (0, '5\n', '')),
    ("lines-nul", None, "file",
     "1\n2\n3\n4\n5\n6\x00\n7\n",
     (2, '', "error: line 6: cannot parse '6\\x00'\n")),
    ("lines-crlf-file", None, "file",
     "1\r\n2\r\n\r\n3\r\n4\r\n5\r\nx\r\n",
     (2, '', "error: line 7: cannot parse 'x'\n")),
    ("lines-crlf-stdin", None, "stdin",
     "1\r\n2\r\n\r\n3\r\n4\r\n5\r\nx\r\n",
     (2, '', "error: line 7: cannot parse 'x'\n")),
    ("lines-lone-cr-stdin", None, "stdin",
     "1\r2\n3\n4\n5\r6\r7\nx\n",
     (2, '', "error: line 8: cannot parse 'x'\n")),
    ("lines-form-feed", None, "file",
     "1\n2\x0c3\n4\n5\n6\n7\x0cbad\n",
     (2, '', "error: line 8: cannot parse 'bad'\n")),
    ("lines-vertical-tab-and-separators", None, "stdin",
     "1\x0b2\n3\x1c4\n5\x1d6\x1e7\nq\n",
     (2, '', "error: line 8: cannot parse 'q'\n")),
    ("lines-non-ascii-breaks", None, "file",
     "1\n2\u20283\n4\x855\n6\u20297\nbad\n",
     (2, '', "error: line 8: cannot parse 'bad'\n")),
    ("lines-non-ascii-digits", None, "file",
     "\u0661\n\u0662\n\u0663\n\u0664\n\u0665\n",
     (0, '3\n', '')),
    ("lines-no-final-newline", None, "file",
     "1\n2\n3\n4\n5\n6",
     (0, '3.5\n', '')),
    ("lines-whitespace", None, "stdin",
     " 1 \n\t2\n3\x1f\n4\n5\n",
     (0, '3\n', '')),
    ("lines-parse-error-later-block", None, "file",
     "1\n2\n3\n4\n5\n6\n7\n8\n9\nz\n",
     (2, '', "error: line 10: cannot parse 'z'\n")),
    ("lines-domain-then-parse-error", None, "stdin",
     "1\n-2\n3\n4\n5\n6\n7\n8\nz\n",
     (2, '', "error: line 9: cannot parse 'z'\n")),
]


class TestEval:
    def test_gini_golden(self, monkeypatch, capsys):
        code, out, _ = run_cli(["eval", "--family", "gini", "--p", "2", "--q", "1"],
                               "3\n4\n", monkeypatch, capsys)
        assert code == 0
        assert out.strip() == "3.5714285714285716"

    def test_power_integerish(self, monkeypatch, capsys):
        code, out, _ = run_cli(["eval", "--family", "power", "--p", "1"],
                               "5\n", monkeypatch, capsys)
        assert code == 0
        assert out.strip() == "5"

    def test_empty_input(self, monkeypatch, capsys):
        code, _, _ = run_cli(["eval", "--family", "power", "--p", "1"],
                             "", monkeypatch, capsys)
        assert code == 4

    def test_finalizer_value_error_is_an_error_line(self, monkeypatch, capsys):
        # witness: exp underflows to 0, the finalizer's log(0) raised a bare
        # ValueError and eval printed a traceback
        code, out, err = run_cli(["eval", "--family", "quasiarithmetic",
                                  "--f", "exp"], "-800\n-801\n", monkeypatch, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_overflowed_leaf_with_finite_running_totals(self, monkeypatch, capsys):
        # witness: 100 -> 1e308 in the first leaf of 64 lines, two -100 in
        # the second, whose sum is -inf while the running total stays finite;
        # eval failed with "state carries non-finite components"
        xs = [100.0] + [0.0] * 63 + [-100.0, -100.0]
        code, out, _ = run_cli(["eval", "--family", "quasiarithmetic",
                                "--f", "affine:1e306,0"],
                               "".join(f"{x}\n" for x in xs), monkeypatch, capsys)
        assert code == 0
        assert float(out) == ms.evaluate_stream(
            ms.quasi_arithmetic("affine:1e306,0"), xs) == pytest.approx(-100 / 66)

    def test_parse_error_reports_line(self, monkeypatch, capsys):
        code, _, err = run_cli(["eval", "--family", "power", "--p", "1"],
                               "1\nbogus\n", monkeypatch, capsys)
        assert code == 2
        assert "line 2" in err

    def test_domain_error(self, monkeypatch, capsys):
        code, _, _ = run_cli(["eval", "--family", "power", "--p", "1"],
                             "1\n-3\n", monkeypatch, capsys)
        assert code == 3

    def test_hash_terminator_and_commas(self, monkeypatch, capsys):
        code, out, _ = run_cli(["eval", "--family", "power", "--p", "1"],
                               "1, 2, 3\n#\n99\n", monkeypatch, capsys)
        assert code == 0
        assert out.strip() == "2"

    def test_csv_column(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n1,3\n2,4\n")
        code, out, _ = run_cli(["eval", "--family", "power", "--p", "1",
                                "--input", str(path), "--column", "y"],
                               "", monkeypatch, capsys)
        assert code == 0
        assert out.strip() == "3.5"

    def test_csv_column_index_reads_the_first_row_as_data(self, monkeypatch,
                                                          capsys):
        # no header cell is "0", so column 0 is read from the first row on
        code, out, _ = run_cli(["eval", "--family", "power", "--p", "1",
                                "--column", "0"], "2,9\n4,9\n",
                               monkeypatch, capsys)
        assert code == 0
        assert out.strip() == "3"

    def test_csv_unknown_column(self, monkeypatch, capsys):
        code, out, err = run_cli(["eval", "--family", "power", "--p", "1",
                                  "--column", "nope"], "x,y\n1,3\n",
                                 monkeypatch, capsys)
        assert code == 2 and out == ""
        assert err.strip() == "error: column 'nope' not found"

    def test_csv_lone_hash_row_ends_stream(self, monkeypatch, capsys, tmp_path):
        # witness: the lone "#" row was skipped, and this printed 50
        path = tmp_path / "data.csv"
        path.write_text("x\n1\n#\n99\n")
        code, out, _ = run_cli(["eval", "--family", "power", "--p", "1",
                                "--input", str(path), "--column", "x"],
                               "", monkeypatch, capsys)
        assert code == 0
        assert out.strip() == "1"

    def test_csv_hash_inside_a_first_cell_does_not_end_the_stream(
            self, monkeypatch, capsys, tmp_path):
        # a "#" anywhere in a first cell sends the block to the careful path;
        # only a cell that strips to "#" ends the stream
        path = tmp_path / "data.csv"
        for rows, want in (("a#b,2\nc#,4\n#d,8\n", "4.666666666666667"),
                           ("a#b,2\nc#,4\n#d,8\n # ,16\ne,32\n",
                            "4.666666666666667"),
                           ("a#b,2\n" * BLOCK_LINES + "c,5\n",
                            "2.0003661662394729")):
            path.write_text("name,value\n" + rows)
            code, out, _ = run_cli(["eval", "--family", "power", "--p", "1",
                                    "--input", str(path), "--column", "value"],
                                   "", monkeypatch, capsys)
            assert (code, out.strip()) == (0, want)

    def test_crlf_input(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "data.txt"
        path.write_bytes(b"1\r\n2\r\n\r\n6\r\n")
        code, out, _ = run_cli(["eval", "--family", "power", "--p", "1",
                                "--input", str(path)], "", monkeypatch, capsys)
        assert code == 0
        assert out.strip() == "3"
        path.write_bytes(b"x,y\r\n1,3\r\n2,4\r\n")
        code, out, _ = run_cli(["eval", "--family", "power", "--p", "1",
                                "--input", str(path), "--column", "y"],
                               "", monkeypatch, capsys)
        assert code == 0
        assert out.strip() == "3.5"

    def test_parse_error_in_a_later_block(self, monkeypatch, capsys):
        lines = ["2"] * (2 * BLOCK_LINES + 10)
        lines[BLOCK_LINES + 3] = "1, 2"  # a slow-path block that parses
        lines[2 * BLOCK_LINES + 4] = "bogus"
        code, _, err = run_cli(["eval", "--family", "power", "--p", "1"],
                               "\n".join(lines), monkeypatch, capsys)
        assert code == 2
        assert f"line {2 * BLOCK_LINES + 5}:" in err

    def test_parse_error_beats_an_earlier_domain_error(self, monkeypatch,
                                                       capsys, tmp_path):
        lines = ["2"] * (BLOCK_LINES + 10)
        lines[1] = "-1"
        lines[BLOCK_LINES + 5] = "bogus"
        code, _, err = run_cli(["eval", "--family", "power", "--p", "1"],
                               "\n".join(lines), monkeypatch, capsys)
        assert code == 2
        assert f"line {BLOCK_LINES + 6}:" in err
        path = tmp_path / "data.csv"
        path.write_text("v\n" + "\n".join(lines) + "\n")
        code, _, err = run_cli(["eval", "--family", "power", "--p", "1",
                                "--input", str(path), "--column", "v"],
                               "", monkeypatch, capsys)
        assert code == 2
        assert f"line {BLOCK_LINES + 7}:" in err
        lines[BLOCK_LINES + 5] = "2"
        code, _, err = run_cli(["eval", "--family", "power", "--p", "1"],
                               "\n".join(lines), monkeypatch, capsys)
        assert code == 3
        assert "-1.0 outside domain" in err

    def test_stdin_over_many_blocks(self, monkeypatch, capsys):
        values = [float(v) for v in range(1, 2 * BLOCK_LINES + 4)]
        text = "".join(f"{v}\n" for v in values)
        for argv in (["--input", "-"], []):
            code, out, _ = run_cli(["eval", "--family", "power", "--p", "1",
                                    *argv], text, monkeypatch, capsys)
            assert code == 0
            assert float(out) == sum(values) / len(values)
        code, out, _ = run_cli(["eval", "--family", "median"], text,
                               monkeypatch, capsys)
        assert code == 0
        assert float(out) == values[(len(values) - 1) // 2]

    def test_median_blocks_merge_in_a_tree(self, monkeypatch, capsys):
        # witness: eval merged each block into the running multiset, so the
        # median's sorted merges took in 33,280 elements here, and eval's
        # time grew with the square of its input
        lengths, sorted_merge = [], families._sorted_merge

        def counted(a, b):
            lengths.append(len(a) + len(b))
            return sorted_merge(a, b)

        monkeypatch.setattr(cli, "BLOCK_LINES", 16)
        monkeypatch.setattr(families, "_sorted_merge", counted)
        n = 1024
        blocks = n // 16
        values = [float(i * 7919 % n) for i in range(n)]
        code, out, _ = run_cli(["eval", "--family", "median"],
                               "".join(f"{v}\n" for v in values),
                               monkeypatch, capsys)
        assert code == 0
        assert float(out) == sorted(values)[(n - 1) // 2]
        assert sum(lengths) <= n * (math.log2(blocks) + 1)

    def test_degree_above_the_recursion_limit(self, monkeypatch, capsys):
        # witness: `seq 1 20 | meanstream eval --family hamy --r 13` printed a
        # ValueError traceback and exited 1
        values = "".join(f"{i}\n" for i in range(1, 21))
        for argv in (["--family", "hamy", "--r", "13"],
                     ["--family", "sympoly", "--r", "13"],
                     ["--family", "biplanar", "--p", "2", "--q", "3",
                      "--c", "13", "--d", "1"]):
            code, out, err = run_cli(["eval", *argv], values, monkeypatch, capsys)
            assert code == 2 and out == ""
            assert "1..12" in err

    def test_non_finite_exponent(self, monkeypatch, capsys):
        # witness: `--family power --p inf` on 0.5, 0.25 printed 1 and
        # exited 0; biplanar died with a bare OverflowError
        for argv in (["--family", "power", "--p", "inf"],
                     ["--family", "power", "--p", "nan"],
                     ["--family", "gini", "--p", "inf", "--q", "1"],
                     ["--family", "biplanar", "--p", "inf", "--q", "1",
                      "--c", "1", "--d", "1"]):
            code, out, err = run_cli(["eval", *argv], "0.5\n0.25\n",
                                     monkeypatch, capsys)
            assert (code, out) == (2, "")
            assert "finite" in err

    def test_generator_overflow_is_an_error(self, monkeypatch, capsys):
        # witness: exit 1 with an OverflowError traceback from 50.0 ** 300
        code, out, err = run_cli(
            ["eval", "--family", "quasiarithmetic", "--f", "power:300"],
            "1\n", monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "overflow" in err

    @pytest.mark.parametrize("spec", [
        '{"family":"power","p":"abc"}', '{"family":"power","p":[1]}',
        '[1]', '"x"', '{"p":1}', '{"family":"hamy","r":4.7}',
        '{"family":"quasiarithmetic","f":5}', '{"family":"hamy","r":3,"p":2}',
        '{"family":"cube_over_square","kind":"lower"}',
        # witnesses: exit 1 with a ValueError traceback from json's digit
        # limit, and with a RecursionError traceback
        pytest.param('{"family":"hamy","r":%s}' % ("9" * 5000),
                     id="5000-digits"),
        pytest.param("[" * 100_000, id="deep-nesting"),
    ])
    def test_malformed_family_json(self, spec, monkeypatch, capsys):
        # witnesses: the first four exited 1 with a traceback; r 4.7 built
        # hamy(4)
        code, out, err = run_cli(["eval", "--family-json", spec], "1\n2\n",
                                 monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        if len(spec) > 1000:  # the two that json.loads itself refuses
            assert err.startswith("error: bad --family-json: ")

    def test_flag_the_family_does_not_take(self, monkeypatch, capsys):
        # witness: --p was ignored, and sympoly(2)'s 1.9148542155126762
        # printed with exit 0
        code, out, err = run_cli(
            ["eval", "--family", "sympoly", "--r", "2", "--p", "5"],
            "1\n2\n3\n", monkeypatch, capsys)
        assert (code, out, err) == (
            2, "", "error: sympoly takes no parameter 'p'\n")

    def test_integral_float_degree(self, monkeypatch, capsys):
        code, out, _ = run_cli(["eval", "--family-json", '{"family":"hamy","r":2.0}'],
                               "4\n9\n", monkeypatch, capsys)
        assert code == 0 and float(out) == pytest.approx(6.0)

    def test_missing_input_file(self, monkeypatch, capsys, tmp_path):
        path = str(tmp_path / "absent.txt")
        code, out, err = run_cli(["eval", "--family", "power", "--p", "1",
                                  "--input", path], "", monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: No such file or directory\n"

    def test_family_json(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["eval", "--family-json", '{"family":"gini","p":2,"q":1}'],
            "3\n4\n", monkeypatch, capsys)
        assert code == 0
        assert out.strip() == "3.5714285714285716"

    @pytest.mark.parametrize("command", ["eval", "classify"])
    @pytest.mark.parametrize("flags, named", [
        (["--family", "power", "--p", "1",
          "--family-json", '{"family":"hamy","r":2}'], "--family, --p"),
        (["--family-json", '{"family":"power","p":1}', "--p", "3"], "--p"),
        (["--family-json", '{"family":"gini","p":2,"q":1}',
          "--family", "gini"], "--family"),
    ], ids=["family-and-param", "param", "family"])
    def test_family_json_with_other_family_flags(self, monkeypatch, capsys,
                                                 command, flags, named):
        # witnesses: eval printed hamy(2)'s 2 for the first and power(1)'s
        # 2.5 for the second, and exited 0: --family-json won silently
        assert run_cli([command, *flags], "1\n4\n", monkeypatch, capsys) == (
            2, "", f"error: --family-json cannot be combined with {named}\n")

    def test_csv_field_over_the_reader_limit(self, monkeypatch, capsys,
                                             tmp_path):
        # witness: csv.reader raised "_csv.Error: field larger than field
        # limit (131072)", and eval printed a traceback and exited 1
        path = tmp_path / "wide.csv"
        path.write_text("v\n1\n" + "9" * 200_000 + "\n3\n")
        code, out, err = run_cli(["eval", "--family", "power", "--p", "1",
                                  "--column", "v", "--input", str(path)],
                                 "", monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert err == "error: line 3: field larger than field limit (131072)\n"

    @pytest.mark.parametrize("column", [None, "0"], ids=["lines", "csv"])
    def test_input_that_is_not_utf8(self, monkeypatch, capsys, tmp_path,
                                    column):
        # witness: a UnicodeDecodeError traceback, exit 1
        path = tmp_path / "bad.txt"
        path.write_bytes(b"1\n\xff\xfe2\n")
        argv = ["eval", "--family", "power", "--p", "1", "--input", str(path)]
        code, out, err = run_cli(argv + (["--column", column] if column else []),
                                 "", monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: not UTF-8 text (invalid start byte)\n"

    def test_eval_holds_one_input_block(self, monkeypatch, capsys, tmp_path):
        # witness: a 100k-row CSV peaked at 3.85 MB while _value_blocks
        # was drained, and eval at 3.87 MB: the next block was read while
        # the last one's rows, and its values, were still held
        path = tmp_path / "values.csv"
        path.write_text("id,value\n" + "".join(
            f"{i},{0.5 + i * 0.0123456789!r}\n" for i in range(100_000)))
        args = ["eval", "--family", "hamy", "--r", "4", "--input", str(path),
                "--column", "value"]
        assert main(args) == 0  # compiles the kernels outside the trace
        expected, _ = capsys.readouterr()
        blocks = cli._value_blocks(cli.build_parser().parse_args(args))
        tracemalloc.start()
        try:
            for _ in blocks:
                pass
            drained = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            assert main(args) == 0
            evaluated = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out == expected
        assert drained < 3e6 and evaluated < 3e6, (drained, evaluated)

    @pytest.mark.parametrize("column, source, text, outcome",
                             [case[1:] for case in BLOCK_CASES],
                             ids=[case[0] for case in BLOCK_CASES])
    def test_block_reading_keeps_every_outcome(self, monkeypatch, capsys,
                                               tmp_path, column, source,
                                               text, outcome):
        monkeypatch.setattr(cli, "BLOCK_LINES", 4)
        argv = ["eval", "--family", "power", "--p", "1"]
        if column is not None:
            argv += ["--column", column]
        if source == "file":
            path = tmp_path / "input"
            path.write_bytes(text.encode("utf-8", "surrogatepass"))
            argv, text = argv + ["--input", str(path)], ""
        assert run_cli(argv, text, monkeypatch, capsys) == outcome

    @pytest.mark.parametrize("text, column", [
        ("\ufeffvalue\n1\n2\n", "value"), ("\ufeff1\n2\n", None),
        ("\ufeff1,9\n2,9\n", "0")], ids=["csv-header", "lines", "csv-index"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_a_byte_order_mark_is_not_data(self, monkeypatch, capsys,
                                           tmp_path, text, column, source):
        # witnesses: exit 2 with "column 'value' not found", and with
        # "line 1: cannot parse '\ufeff1'"
        argv = ["eval", "--family", "power", "--p", "1"]
        if column is not None:
            argv += ["--column", column]
        if source == "file":
            path = tmp_path / "bom.csv"
            path.write_bytes(text.encode("utf-8"))
            argv, text = argv + ["--input", str(path)], ""
        assert run_cli(argv, text, monkeypatch, capsys) == (0, "1.5\n", "")

    def test_a_lone_byte_order_mark_is_empty_input(self, monkeypatch, capsys,
                                                   tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf")
        for argv, stdin in ((["--input", str(path)], ""), ([], "\ufeff")):
            assert run_cli(["eval", "--family", "power", "--p", "1", *argv],
                           stdin, monkeypatch, capsys) == (
                4, "", "error: empty input\n")

    def test_unwritable_state_out(self, monkeypatch, capsys, tmp_path):
        # witness: a FileNotFoundError traceback, exit 1
        path = str(tmp_path / "absent" / "x.json")
        code, out, err = run_cli(["eval", "--family", "power", "--p", "1",
                                  "--state-out", path], "3\n",
                                 monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: No such file or directory\n"


def _family_argv(d) -> list:
    return ["--family-json", json.dumps({"family": d.family, **d.params})]


def _eval_with_state(argv, stdin, state_path) -> tuple:
    """(exit code, stdout, --state-out bytes) of an in-process eval."""
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out):
        code = main(["eval", *argv, "--state-out", str(state_path)])
    return code, out.getvalue(), state_path.read_bytes() if code == 0 else None


def _assert_eval_is_evaluate_stream(d, values, argv, stdin, state_path):
    """eval's state is absorb_many's of values, and its stdout
    evaluate_stream's, whatever lines the values were laid out on."""
    assert _eval_with_state(argv, stdin, state_path) == (
        0, f"{ms.evaluate_stream(d, values):.17g}\n",
        ms.serialize_state(ms.absorb_many(ms.init(d), values)))


def _plain_layout(values, seps) -> str:
    """values, each followed by its separator, then a closing "#"."""
    return "".join(f"{v!r}{sep}" for v, sep in zip(values, seps)) + "#\nz\n"


def _csv_layout(values, blank) -> str:
    """A CSV file whose column v holds values, with a blank row after each
    value whose index is in blank, and a closing "#" row."""
    return "id,v\n" + "".join(f"{i},{v!r}\n" + ("\n" if i in blank else "")
                              for i, v in enumerate(values)) + "#\nz,z\n"


class TestLineLayout:
    """eval folds its values by core's runs, not by the blocks it reads:
    witness, with a blank line after every third of 20000 values, eval's
    --state-out bytes differed from absorb_many's of the same values for
    power(1), gini(2, 1) and hamy(4), and hamy(4) printed another value."""

    @pytest.mark.parametrize("route", ["file", "stdin", "csv"])
    def test_state_is_absorb_many_of_the_values(self, route, monkeypatch,
                                                tmp_path):
        monkeypatch.setattr(cli, "BLOCK_LINES", 7)
        rng = random.Random(7)
        values = [rng.uniform(0.5, 100) for _ in range(300)]
        # lines of one and of three values in turn, a blank after every eighth
        seps = [("\n\n" if i % 16 == 15 else "\n") if i % 4 in (0, 3)
                else ", " for i in range(len(values))]
        text = (_csv_layout(values, set(range(0, 300, 5))) if route == "csv"
                else _plain_layout(values, seps))
        path = tmp_path / "in.txt"
        path.write_text(text)
        flags = {"file": ["--input", str(path)], "stdin": [],
                 "csv": ["--input", str(path), "--column", "v"]}[route]
        for d in (ms.power_mean(1), ms.gini(2, 1), ms.hamy(4),
                  ms.median_mean()):
            _assert_eval_is_evaluate_stream(d, values,
                                            [*_family_argv(d), *flags],
                                            text, tmp_path / "s.json")

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(all_families()),
           st.lists(st.tuples(st.floats(0.5, 100.0),
                              st.sampled_from([", ", "\n", "\n\n", "\n \n"])),
                    min_size=1, max_size=200),
           st.integers(1, 20))
    def test_any_layout_and_block_size(self, tmp_path_factory, d, laid_out,
                                       block_lines):
        values = [v for v, _ in laid_out]
        text = _plain_layout(values, [sep for _, sep in laid_out])
        with mock.patch.object(cli, "BLOCK_LINES", block_lines):
            _assert_eval_is_evaluate_stream(
                d, values, _family_argv(d), text,
                tmp_path_factory.mktemp("layout") / "s.json")

    def test_overflow_is_decided_per_run_not_per_block(self, monkeypatch,
                                                       capsys):
        # witness: with ten lines a block, eval exited 1 with "state
        # carries non-finite components" on this input
        monkeypatch.setattr(cli, "BLOCK_LINES", 10)
        xs = [100.0] + [0.0] * 63 + [-100.0, -100.0]
        d = ms.quasi_arithmetic("affine:1e306,0")
        assert run_cli(["eval", *_family_argv(d)],
                       "".join(f"{x}\n" for x in xs), monkeypatch, capsys) == (
            0, f"{ms.evaluate_stream(d, xs):.17g}\n", "")


def _uniform_halves() -> tuple:
    """30 values of random.Random(1).uniform(0.5, 100), split 13 | 17."""
    rng = random.Random(1)
    xs = [rng.uniform(0.5, 100) for _ in range(30)]
    return xs[:13], xs[13:]


class TestMerge:
    def _state_file(self, tmp_path, name, values, monkeypatch, capsys):
        path = tmp_path / name
        code, _, _ = run_cli(
            ["eval", "--family", "gini", "--p", "2", "--q", "1",
             "--state-out", str(path)],
            "".join(f"{v}\n" for v in values), monkeypatch, capsys)
        assert code == 0
        return path

    def test_merge_two_shards(self, monkeypatch, capsys, tmp_path):
        s1 = self._state_file(tmp_path, "a.state", [3], monkeypatch, capsys)
        s2 = self._state_file(tmp_path, "b.state", [4], monkeypatch, capsys)
        out_path = tmp_path / "merged.state"
        code = main(["merge", str(s1), str(s2), "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        merged = ms.parse_state(out_path.read_bytes())
        assert merged.finalize() == pytest.approx(25 / 7, rel=1e-15)

    def test_merge_single_file_is_identity(self, monkeypatch, capsys, tmp_path):
        s1 = self._state_file(tmp_path, "a.state", [3, 4], monkeypatch, capsys)
        out_path = tmp_path / "same.state"
        assert main(["merge", str(s1), "--out", str(out_path)]) == 0
        capsys.readouterr()
        a, b = ms.parse_state(s1.read_bytes()), ms.parse_state(out_path.read_bytes())
        assert a.reals == b.reals

    def test_spellings_of_one_generator_merge(self, monkeypatch, capsys,
                                              tmp_path):
        # witness: the states of --f power:2.0 and --f power:2 were named
        # apart, and their merge exited 5
        paths = []
        for f, value in (("power:2.0", "3\n"), ("power:2", "4\n")):
            paths.append(str(tmp_path / f"{f}.state"))
            assert run_cli(["eval", "--family", "bajraktarevic", "--f", f,
                            "--g", "power:1", "--state-out", paths[-1]],
                           value, monkeypatch, capsys)[0] == 0
        merged = ms.absorb_many(ms.init(ms.bajraktarevic(ms.pair_power(2, 1))),
                                [3.0, 4.0])
        assert run_cli(["merge", *paths], "", monkeypatch, capsys) == (
            0, ms.serialize_state(merged).decode() + "\n", "")

    def test_merge_order_gives_the_same_bytes(self, monkeypatch, capsys,
                                              tmp_path):
        # witnesses: merge a b and merge b a of these hamy(4) states wrote
        # other bytes, as the combine's products summed in operand order;
        # of these median states, merge a b wrote 0.0 before -0.0, and
        # merge b a -0.0 before 0.0
        for flags, halves in ((["--family", "hamy", "--r", "4"],
                               _uniform_halves()),
                              (["--family", "median"], ([0.0], [-0.0]))):
            paths = []
            for name, values in zip("ab", halves):
                paths.append(str(tmp_path / f"{flags[1]}-{name}.state"))
                assert run_cli(["eval", *flags, "--state-out", paths[-1]],
                               "".join(f"{v!r}\n" for v in values),
                               monkeypatch, capsys)[0] == 0
            ab = run_cli(["merge", *paths], "", monkeypatch, capsys)
            ba = run_cli(["merge", *paths[::-1]], "", monkeypatch, capsys)
            assert ab == ba and ab[0] == 0

    def test_identity_and_power_1_states_merge(self, monkeypatch, capsys,
                                               tmp_path):
        # witness: --g identity and --g power:1 named one mean apart, and
        # their merge exited 5
        paths = []
        for g, value in (("identity", "3\n"), ("power:1", "4\n")):
            paths.append(str(tmp_path / f"{g}.state"))
            assert run_cli(["eval", "--family", "bajraktarevic", "--f",
                            "power:2", "--g", g, "--state-out", paths[-1]],
                           value, monkeypatch, capsys)[0] == 0
        code, out, _ = run_cli(["merge", *paths], "", monkeypatch, capsys)
        assert code == 0
        assert ms.parse_state(out.encode()).finalize() == 3.5714285714285716

    def test_mismatch_exit_code(self, monkeypatch, capsys, tmp_path):
        s1 = self._state_file(tmp_path, "a.state", [3], monkeypatch, capsys)
        p2 = tmp_path / "p.state"
        run_cli(["eval", "--family", "power", "--p", "1",
                 "--state-out", str(p2)], "3\n", monkeypatch, capsys)
        assert main(["merge", str(s1), str(p2)]) == 5
        capsys.readouterr()

    @pytest.mark.parametrize("third", ["corrupt", "absent"])
    def test_unreadable_file_wins_over_an_earlier_mismatch(
            self, monkeypatch, capsys, tmp_path, third):
        s1 = self._state_file(tmp_path, "a.state", [3], monkeypatch, capsys)
        p2 = tmp_path / "p.state"
        p2.write_bytes(ms.serialize_state(ms.init(ms.power_mean(1.0)).absorb(3.0)))
        bad = tmp_path / "bad.state"
        if third == "corrupt":
            bad.write_bytes(b"{not json")
        assert main(["merge", str(s1), str(p2), str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {bad}: ")

    def test_states_are_merged_as_they_are_parsed(self, monkeypatch, capsys,
                                                  tmp_path):
        d, paths, events = ms.quasi_arithmetic("ln"), [], []
        for i in range(3):
            paths.append(tmp_path / f"s{i}.state")
            paths[-1].write_bytes(ms.serialize_state(ms.init(d).absorb(i + 1.0)))
        for name in ("parse_state", "merge"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, _n=name, _f=real:
                                events.append(_n) or _f(*a))
        assert main(["merge", *map(str, paths)]) == 0
        capsys.readouterr()
        assert events == ["parse_state", "parse_state", "merge",
                          "parse_state", "merge"]

    def test_median_files_merge_in_a_tree(self, monkeypatch, capsys,
                                          tmp_path):
        # witness: merge folded each file into the running multiset, so the
        # median's sorted merges took in 33,264 elements here, and merge's
        # time grew with the square of its input
        lengths, sorted_merge = [], families._sorted_merge

        def counted(a, b):
            lengths.append(len(a) + len(b))
            return sorted_merge(a, b)

        monkeypatch.setattr(families, "_sorted_merge", counted)
        n, files = 1024, 64
        values = [float(i * 7919 % n) for i in range(n)]
        d, paths = ms.median_mean("lower"), []
        # serialize_state's twin of d, which parse then shares, is built
        # with counted too: a cached one would hold another combine
        state_io._descriptor.cache_clear()
        try:
            for i in range(files):
                paths.append(tmp_path / f"s{i}.state")
                paths[-1].write_bytes(ms.serialize_state(
                    ms.absorb_many(ms.init(d), values[i::files])))
            out_path = tmp_path / "merged.state"
            assert main(["merge", *map(str, paths), "--out",
                         str(out_path)]) == 0
        finally:
            state_io._descriptor.cache_clear()
        capsys.readouterr()
        assert ms.parse_state(out_path.read_bytes()).reals == tuple(
            sorted(values))
        assert sum(lengths) <= n * (math.log2(files) + 1)

    def test_merged_bytes_are_the_tree_of_the_files(self, capsys, tmp_path):
        d, paths = ms.gini(2, 1), []
        for i in range(1, 9):
            paths.append(tmp_path / f"s{i}.state")
            paths[-1].write_bytes(ms.serialize_state(
                ms.init(d).absorb(0.1 * i)))
        out_path = tmp_path / "merged.state"
        assert main(["merge", *map(str, paths), "--out", str(out_path)]) == 0
        capsys.readouterr()
        parsed = [ms.parse_state(path.read_bytes()) for path in paths]
        tree = ms.serialize_state(core.merge_tree(core.merge, parsed))
        assert out_path.read_bytes() == tree
        # a left fold rounds these sums otherwise
        assert tree != ms.serialize_state(functools.reduce(core.merge, parsed))

    @pytest.mark.parametrize("fifth", ["absent", "gini"])
    def test_mismatch_after_a_carry_waits_for_the_last_file(
            self, monkeypatch, capsys, tmp_path, fifth):
        paths = [self._state_file(tmp_path, f"s{i}.state", [3 + i],
                                  monkeypatch, capsys) for i in range(3)]
        paths.append(tmp_path / "p.state")  # merged into the third's subtree
        paths[-1].write_bytes(ms.serialize_state(
            ms.init(ms.power_mean(1.0)).absorb(3.0)))
        paths.append(tmp_path / "last.state")
        if fifth == "gini":
            self._state_file(tmp_path, "last.state", [7], monkeypatch, capsys)
        code = main(["merge", *map(str, paths)])
        out, err = capsys.readouterr()
        if fifth == "absent":
            assert (code, out) == (2, "")
            assert err == f"error: {paths[-1]}: No such file or directory\n"
        else:
            assert (code, out) == (5, "")

    def test_missing_state_file(self, tmp_path, capsys):
        # witness: `meanstream merge /nonexistent` exited 1 with a
        # FileNotFoundError traceback
        good = tmp_path / "good.state"
        good.write_bytes(ms.serialize_state(ms.init(ms.power_mean(1.0))))
        path = str(tmp_path / "absent.state")
        assert main(["merge", str(good), path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}: No such file or directory\n"

    def test_unwritable_out(self, tmp_path, capsys):
        # witness: a FileNotFoundError traceback, exit 1
        good = tmp_path / "good.state"
        good.write_bytes(ms.serialize_state(ms.init(ms.power_mean(1.0))))
        path = str(tmp_path / "absent" / "m.json")
        assert main(["merge", str(good), "--out", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}: No such file or directory\n"

    def test_merge_builds_one_descriptor(self, monkeypatch, capsys, tmp_path):
        calls, build = [], families.descriptor_from_params
        monkeypatch.setattr(families, "descriptor_from_params",
                            lambda *a: calls.append(a) or build(*a))
        state_io._descriptor.cache_clear()
        d = ms.quasi_arithmetic("ln")
        paths = []
        for i in range(50):
            paths.append(tmp_path / f"s{i}.state")
            paths[-1].write_bytes(ms.serialize_state(ms.init(d).absorb(i + 1.0)))
        out_path = tmp_path / "merged.state"
        assert main(["merge", *map(str, paths), "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert calls == [("quasiarithmetic", {"f": "ln"})]
        merged = ms.parse_state(out_path.read_bytes())
        assert merged.count == 50
        assert merged.finalize() == pytest.approx(
            ms.evaluate_stream(d, range(1, 51)), rel=1e-14)

    # witnesses: each printed a traceback and exited 1
    @pytest.mark.parametrize("blob", [
        b'{"version": 2, "family": "power", "params": {"p": 1.0}, "k": 1, '
        b'"reals": ["0x1p+99999"], "counter": 1, "overflow": false}',
        b'{"version": ' + b"[" * 100000,
        b'{"version": 2, "family": "power", "params": {"p": 1.0}, "k": '
        + b"1" * 5000 + b', "reals": ["0x1p+1"], "counter": 1, '
        b'"overflow": false}',
    ], ids=["OverflowError", "RecursionError", "ValueError"])
    def test_bare_exception_exit_code(self, tmp_path, capsys, blob):
        bad = tmp_path / "bad.state"
        bad.write_bytes(blob)
        assert main(["merge", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {bad}: ")

    def test_corrupt_file_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.state"
        bad.write_bytes(b"{not json")
        assert main(["merge", str(bad)]) == 2
        capsys.readouterr()

    def test_split_merge_matches_single_pass(self, monkeypatch, capsys, tmp_path):
        rng = random.Random(3)
        values = [rng.uniform(0.5, 20) for _ in range(17)]
        paths = []
        for i, chunk in enumerate((values[:5], values[5:9], values[9:])):
            paths.append(self._state_file(tmp_path, f"c{i}.state", chunk,
                                          monkeypatch, capsys))
        out_path = tmp_path / "merged.state"
        assert main(["merge", *map(str, paths), "--out", str(out_path)]) == 0
        capsys.readouterr()
        merged = ms.parse_state(out_path.read_bytes()).finalize()
        single = ms.evaluate_stream(ms.gini(2, 1), values)
        assert merged == pytest.approx(single, rel=1e-9)


class TestClassify:
    def test_biplanar_golden(self, capsys):
        assert main(["classify", "--family", "biplanar", "--p", "2",
                     "--q", "3", "--c", "3", "--d", "3",
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["type"] == "T5+"
        assert report["state_dimension"] == 6
        assert "exponent_set_size" not in report

    def test_non_finite_exponent(self, capsys):
        # witness: `classify --family power --p inf` reported T1+
        assert main(["classify", "--family", "power", "--p", "inf"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "finite" in err

    @pytest.mark.parametrize("command", ["classify", "eval"])
    def test_biplanar_exponents_degenerate_in_floats(self, monkeypatch,
                                                     capsys, command):
        # witness: c*p == d*q in floats, though not exactly, and both
        # printed a ZeroDivisionError traceback and exited 1
        argv = [command, "--family", "biplanar", "--p", "1",
                "--q", "0.3333333333333333", "--c", "1", "--d", "3"]
        assert run_cli(argv, "1\n2\n", monkeypatch, capsys) == (
            2, "", "error: c*p == d*q == 1.0 in floats\n")

    def test_quasiarithmetic(self, capsys):
        assert main(["classify", "--family", "quasiarithmetic",
                     "--f", "ln", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["type"] == "T1+"

    def test_hamy_upper_bound_flag(self, capsys):
        assert main(["classify", "--family", "hamy", "--r", "3",
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["type"] == "T3+"
        assert report["upper_bound_only"] is True

    def test_gini_with_a_zero_exponent_is_t1_plus(self, capsys):
        # witness: gini(2, 0), the power mean of order 2, reported T2
        assert main(["classify", "--family", "gini", "--p", "2", "--q", "0",
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["type"], report["state_dimension"], report["has_counter"],
                report["hierarchy_index"]) == ("T1+", 2, True, 1)

    def test_median(self, capsys):
        assert main(["classify", "--family", "median", "--kind", "lower",
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["type"] == "no finite type"
        # witness: "state_dimension": 0, and "state dimension: 0 + counter"
        # in text, for a state that is the whole sorted multiset
        assert report["state_dimension"] is None
        assert main(["classify", "--family", "median"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == (
            "  state dimension: unbounded + counter")


class TestVerifyCommand:
    def test_json_lines(self, capsys):
        assert main(["verify", "--seed", "7", "--trials", "20",
                     "--format", "json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        reports = [json.loads(line) for line in lines]
        assert any(r["property"] == "g23_inequality" for r in reports)
        piecewise = [r for r in reports
                     if r["subject"].startswith("piecewise")
                     and r["property"] == "repetition_invariance"]
        assert piecewise and not piecewise[0]["holds"]


    def test_seed_from_the_environment(self, monkeypatch, capsys):
        argv = ["verify", "--trials", "5", "--format", "json"]
        assert main(argv + ["--seed", "7"]) == 0
        seeded = capsys.readouterr().out
        monkeypatch.setenv("MEANSTREAM_SEED", "7")
        assert main(argv) == 0
        assert capsys.readouterr().out == seeded

    @pytest.mark.parametrize("argv, message", [
        # witnesses: --trials 0 and -5 ran no random trial and printed
        # "holds" for every property; --seed -1 raised a bare ValueError
        (["--trials", "0"], "--trials must be at least 1, got 0"),
        (["--trials", "-5"], "--trials must be at least 1, got -5"),
        (["--seed", "-1"], "--seed must be a non-negative integer, got -1"),
    ])
    def test_bad_argument(self, capsys, argv, message):
        assert main(["verify"] + argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_bad_seed_in_the_environment(self, monkeypatch, capsys):
        # witness: "ValueError: invalid literal for int()", a traceback
        monkeypatch.setenv("MEANSTREAM_SEED", "abc")
        assert main(["verify", "--trials", "5"]) == 2
        assert capsys.readouterr() == (
            "", "error: MEANSTREAM_SEED must be a non-negative integer, "
                "got 'abc'\n")


class TestMyhillCommand:
    def test_profile_json(self, capsys):
        assert main(["myhill", "--family", "median", "--kind", "lower",
                     "--alphabet", "0,1,2", "--max-len", "6",
                     "--probe-len", "2"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["counts"][:3] == [3, 6, 10]
        assert "classification" in result["growth"]

    def test_bad_alphabet(self, capsys):
        # witness: "ValueError: could not convert string to float: 'a'",
        # a traceback and exit 1
        assert main(["myhill", "--family", "power", "--p", "1",
                     "--alphabet", "a,b"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: bad --alphabet 'a,b': could not convert "
                       "string to float: 'a'\n")

    @pytest.mark.parametrize("argv, message", [
        # witnesses: each raised a bare ValueError, a traceback and exit 1;
        # the default alphabet 0,1,2 is outside every positive domain
        ([], "alphabet letter 0.0 outside the domain"),
        (["--max-len", "11"], "max_len must be at most 10"),
        (["--alphabet", "1,2,3,4,5,6"],
         "alphabet size must be between 1 and 5"),
    ])
    def test_bad_argument(self, capsys, argv, message):
        assert main(["myhill", "--family", "power", "--p", "1"] + argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_max_len_below_4(self, capsys):
        # witness: exit 1, the InsufficientData of growth_report
        assert main(["myhill", "--family", "power", "--p", "1",
                     "--alphabet", "1,2", "--max-len", "3"]) == 2
        assert capsys.readouterr() == (
            "", "error: growth classification needs max_len >= 4\n")

    def test_negative_probe_len(self, capsys):
        # witness: exit 0 with "probes": []
        assert main(["myhill", "--family", "power", "--p", "1",
                     "--alphabet", "1,2", "--max-len", "4",
                     "--probe-len", "-1"]) == 2
        assert capsys.readouterr() == (
            "", "error: max_probe_len must be non-negative, got -1\n")

    def test_probe_len_0_compares_values_only(self, capsys):
        assert main(["myhill", "--family", "power", "--p", "1",
                     "--alphabet", "1,2", "--max-len", "4",
                     "--probe-len", "0"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert (result["probes"], result["counts"]) == ([], [2, 3, 4, 5])

    def test_repeated_letters_count_once(self, capsys):
        # witness: 1,1,2 with --probe-len 1 gave 9 probes, [1.0] twice and
        # [1.0, 1.0] three times, where 5 are distinct
        outputs = []
        for alphabet in ("1,1,2", "1,2"):
            assert main(["myhill", "--family", "power", "--p", "1",
                         "--alphabet", alphabet, "--max-len", "4",
                         "--probe-len", "1"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert len(json.loads(outputs[0])["probes"]) == 5


def _refuse_to_enumerate(iterable, r):
    """A stand-in for myhill.combinations_with_replacement, so that a budget
    checked only after enumerating fails at once."""
    raise AssertionError(f"enumerated words of length {r}")


MYHILL = ["myhill", "--family", "power", "--p", "1"]

# (error, argv, stdin, exit code, stderr message) of each class in
# cli.EXIT_CODES; NumericalFailure stands for any other MeanStreamError
EXIT_CODE_WITNESSES = [
    (DomainError, ["eval", "--family", "power", "--p", "1"], "1\n-3\n", 3,
     "-3.0 outside domain of power(p=1.0)"),
    (EmptyStateError, ["eval", "--family", "power", "--p", "1"], "", 4,
     "empty input"),
    (FamilyMismatch, ["merge", "{tmp}/p.state", "{tmp}/h.state"], "", 5,
     'power:{"p": 1.0} vs hamy:{"r": 2}'),
    (cli.CliError, ["eval", "--family", "power", "--p", "1"], "1\nbogus\n",
     2, "line 2: cannot parse 'bogus'"),
    (ParseError, ["merge", "{tmp}/bad.state"], "", 2,
     "{tmp}/bad.state: invalid JSON: Expecting property name enclosed in "
     "double quotes (at byte 1)"),
    (InvalidDescriptor, ["classify", "--family", "power", "--p", "inf"], "",
     2, "power needs a finite p, got inf"),
    (InsufficientData,
     MYHILL + ["--alphabet", "1,2", "--max-len", "0", "--probe-len", "0"],
     "", 2, "growth classification needs max_len >= 4"),
    # witness: C(85, 5) - 1 probes were built before the budget was read
    (BudgetExceeded, MYHILL + ["--alphabet", "1,2,3,4,5", "--probe-len", "40"],
     "", 2, "32801516 probes would exceed 10000000 evaluations"),
    (NumericalFailure, ["eval", "--family", "quasiarithmetic", "--f", "exp"],
     "-800\n-801\n", 1, "finalizer failed: math domain error"),
]


@pytest.mark.parametrize("error, argv, stdin, code, message",
                         EXIT_CODE_WITNESSES,
                         ids=[w[0].__name__ for w in EXIT_CODE_WITNESSES])
def test_exit_code_of_each_row_of_the_table(monkeypatch, capsys, tmp_path,
                                            error, argv, stdin, code, message):
    """The witness raises its error, and main exits with the error's code.
    No witness enumerates words, so a myhill budget checked only after
    enumerating fails at once."""
    (tmp_path / "p.state").write_bytes(
        ms.serialize_state(ms.init(ms.power_mean(1.0)).absorb(3.0)))
    (tmp_path / "h.state").write_bytes(
        ms.serialize_state(ms.init(ms.hamy(2)).absorb(3.0)))
    (tmp_path / "bad.state").write_bytes(b"{not json")
    monkeypatch.setattr(myhill, "combinations_with_replacement",
                        _refuse_to_enumerate)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    message = message.replace("{tmp}", str(tmp_path))
    args = cli.build_parser().parse_args(argv)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    with pytest.raises(error):
        args.func(args)
    assert run_cli(argv, stdin, monkeypatch, capsys) == (
        code, "", f"error: {message}\n")


# eval exits 0 with --state-out, 3 on a domain error and 2 on a parse
# error, and merge writes the state that the first eval wrote
PROCESS_ARGV = [
    ["eval", "--family", "power", "--p", "1", "--input", "values.txt",
     "--state-out", "s.json"],
    ["eval", "--family", "power", "--p", "1", "--input", "negative.txt"],
    ["eval", "--family", "power", "--p", "1", "--input", "bad.txt"],
    ["merge", "s.json", "s.json"],
]


@pytest.mark.parametrize("flags", [[], ["-X", "dev", "-W",
                                        "error::ResourceWarning"]],
                         ids=["plain", "dev-mode"])
def test_a_process_run_gives_what_an_in_process_call_gives(
        monkeypatch, capsys, tmp_path, flags):
    """A process run of the CLI freezes its heap before the interpreter
    exits, which an in-process main(argv) call never does; the process
    prints, exits and writes the same, with its stdout buffered, and in
    development mode no unclosed file warns."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)  # the exit must flush stdout itself
    inputs = {"values.txt": "1\n2\n4\n", "negative.txt": "1\n-2\n4\n",
              "bad.txt": "1\nx\n4\n"}
    for where in ("process", "in-process"):
        (tmp_path / where).mkdir()
        for name, text in inputs.items():
            (tmp_path / where / name).write_text(text)
    process, in_process = [], []
    for argv in PROCESS_ARGV:
        done = subprocess.run(
            [sys.executable, *flags, "-m", "meanstream.cli", *argv],
            cwd=tmp_path / "process", env=env, capture_output=True,
            text=True, timeout=120)
        process.append((done.returncode, done.stdout, done.stderr))
    monkeypatch.chdir(tmp_path / "in-process")
    for argv in PROCESS_ARGV:
        frozen = gc.get_freeze_count()
        in_process.append(run_cli(argv, "", monkeypatch, capsys))
        assert gc.get_freeze_count() == frozen, argv
    assert [code for code, _, _ in process] == [0, 3, 2, 0]
    assert process == in_process
    assert (tmp_path / "process" / "s.json").read_bytes() == (
        tmp_path / "in-process" / "s.json").read_bytes()
