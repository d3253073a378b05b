"""Command line behavior: data on stdout, diagnostics on stderr, stable exits."""

import io
import subprocess
import sys

import pytest

from tritree import parse_newick, trees_isomorphic, write_newick
from tritree.cli import main

STAR4_TABLE = (
    "taxa: t1 t2 t3 t4\n"
    "symbols: a\n"
    "t1 t2 t3 a\n"
    "t1 t2 t4 a\n"
    "t1 t3 t4 a\n"
    "t2 t3 t4 a\n"
)


@pytest.fixture
def caterpillar_table(tmp_path, caterpillar):
    path = tmp_path / "caterpillar.table"
    path.write_text(caterpillar.encode().to_table_text(), encoding="utf-8")
    return str(path)


@pytest.fixture
def two_cycle_table(tmp_path, two_cycle):
    path = tmp_path / "cycles.table"
    path.write_text(two_cycle.to_table_text(), encoding="utf-8")
    return str(path)


def write_tree(tmp_path, text):
    path = tmp_path / "tree.nwk"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestEncode:
    def test_star_table_on_stdout(self, tmp_path, capsys):
        path = write_tree(tmp_path, "(t1,t2,t3,t4)a;")
        assert main(["encode", path]) == 0
        assert capsys.readouterr().out == STAR4_TABLE

    def test_output_file(self, tmp_path):
        path = write_tree(tmp_path, "(t1,t2,t3,t4)a;")
        out = tmp_path / "out.table"
        assert main(["encode", path, "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == STAR4_TABLE

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("(t1,t2,t3,t4)a;"))
        assert main(["encode", "-"]) == 0
        assert capsys.readouterr().out == STAR4_TABLE

    def test_require_discriminating(self, tmp_path, capsys):
        path = write_tree(tmp_path, "((x,y)a,(z,u)a,v)a;")
        assert main(["encode", path]) == 0
        capsys.readouterr()
        assert main(["encode", path, "--require-discriminating"]) == 2
        assert "not discriminating" in capsys.readouterr().err

    def test_parse_error_exits_3(self, tmp_path, capsys):
        path = write_tree(tmp_path, "(x,y,z)a")
        assert main(["encode", path]) == 3
        assert "error:" in capsys.readouterr().err

    def test_invalid_trees_exit_2(self, tmp_path, capsys):
        path = write_tree(tmp_path, "((x,y)a)b;")
        assert main(["encode", path]) == 2
        assert "error:" in capsys.readouterr().err
        path = write_tree(tmp_path, "((x,y,z)a)b;")
        assert main(["encode", path]) == 2
        assert "degree" in capsys.readouterr().err

    def test_missing_file_exits_3(self, tmp_path, capsys):
        assert main(["encode", str(tmp_path / "absent.nwk")]) == 3
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_metric_table(self, caterpillar_table, capsys):
        assert main(["verify", caterpillar_table]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "metric: yes" in captured.err

    def test_non_metric_table(self, two_cycle_table, capsys):
        assert main(["verify", two_cycle_table]) == 1
        captured = capsys.readouterr()
        assert captured.out == "COND 4 SUBSET u w x y z DETAIL values a=5 b=5\n"
        assert "metric: no" in captured.err

    def test_star_flag_reports_the_resolver_check(self, tmp_path, capsys):
        path = write_tree(tmp_path, "(t1,t2,t3,t4,t5)a;")
        table = tmp_path / "star.table"
        assert main(["encode", path, "--output", str(table)]) == 0
        assert main(["verify", str(table), "--star"]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("COND *") == 5
        assert "metric: yes" in captured.err
        assert "resolver check: fail" in captured.err

    def test_fail_fast_stops_early(self, tmp_path, capsys):
        path = write_tree(tmp_path, "(t1,t2,t3,t4,t5)a;")
        table = tmp_path / "star.table"
        main(["encode", path, "--output", str(table)])
        capsys.readouterr()
        assert main(["verify", str(table), "--star", "--fail-fast"]) == 0
        assert capsys.readouterr().out.count("COND *") == 1

    def test_loose_resolver_variant(self, caterpillar_table, capsys):
        assert main(["verify", caterpillar_table, "--star", "--no-strict-star"]) == 0
        assert "resolver check: pass" in capsys.readouterr().err

    def test_incomplete_table_exits_3(self, tmp_path, capsys):
        table = tmp_path / "partial.table"
        table.write_text(
            "taxa: t1 t2 t3 t4\nsymbols: a\nt1 t2 t3 a\n", encoding="utf-8"
        )
        assert main(["verify", str(table)]) == 3
        assert "missing 3-subsets" in capsys.readouterr().err


class TestReconstruct:
    def test_roundtrip_through_files(self, tmp_path, caterpillar, caterpillar_table, capsys):
        assert main(["reconstruct", caterpillar_table]) == 0
        newick = capsys.readouterr().out
        assert trees_isomorphic(parse_newick(newick), caterpillar)

    def test_output_is_canonical(self, caterpillar, caterpillar_table, capsys):
        main(["reconstruct", caterpillar_table])
        assert capsys.readouterr().out == write_newick(caterpillar) + "\n"

    def test_trace_goes_to_stderr(self, caterpillar_table, capsys):
        assert main(["reconstruct", caterpillar_table, "--trace"]) == 0
        captured = capsys.readouterr()
        lines = [line for line in captured.err.splitlines() if line.startswith("CONTRACT")]
        assert lines == [
            "CONTRACT t1 t2 -> @1 COLOR a",
            "CONTRACT @1 t3 -> @2 COLOR b",
        ]

    def test_dot_output(self, caterpillar_table, capsys):
        assert main(["reconstruct", caterpillar_table, "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph colored_tree {")
        assert out.count(" -- ") == 7

    def test_dot_ids_follow_the_newick_order_with_or_without_trace(self, tmp_path, capsys):
        tree = parse_newick("((((t1,t7)a,t3)b,(t4,t6)a)c,(t2,t5)b,t8)a;")
        table = tmp_path / "tree.table"
        table.write_text(tree.encode().to_table_text(), encoding="utf-8")
        assert main(["reconstruct", str(table), "--dot"]) == 0
        plain = capsys.readouterr().out
        assert main(["reconstruct", str(table), "--dot", "--trace"]) == 0
        assert capsys.readouterr().out == plain
        assert "  v8 [shape=circle" in plain and "  v0 -- v8;" in plain

    def test_non_metric_exits_1(self, two_cycle_table, capsys):
        assert main(["reconstruct", two_cycle_table]) == 1
        assert "no pair of taxa merges" in capsys.readouterr().err

    def test_constant_table_gives_the_star(self, tmp_path, capsys):
        table = tmp_path / "constant.table"
        table.write_text(STAR4_TABLE, encoding="utf-8")
        assert main(["reconstruct", str(table)]) == 0
        assert capsys.readouterr().out == "(t1,t2,t3,t4)a;\n"


class TestQuartets:
    def test_caterpillar_quartets(self, caterpillar_table, capsys):
        assert main(["quartets", caterpillar_table]) == 0
        assert capsys.readouterr().out == (
            "t1 t2 | t3 t4\n"
            "t1 t2 | t3 t5\n"
            "t1 t2 | t4 t5\n"
            "t1 t3 | t4 t5\n"
            "t2 t3 | t4 t5\n"
        )

    def test_star_table_gives_no_quartets(self, tmp_path, capsys):
        table = tmp_path / "constant.table"
        table.write_text(STAR4_TABLE, encoding="utf-8")
        assert main(["quartets", str(table)]) == 0
        assert capsys.readouterr().out == ""

    def test_unbalanced_table_exits_1(self, tmp_path, capsys):
        table = tmp_path / "bad.table"
        table.write_text(
            "taxa: t1 t2 t3 t4\n"
            "symbols: a b\n"
            "t1 t2 t3 a\n"
            "t1 t2 t4 a\n"
            "t1 t3 t4 a\n"
            "t2 t3 t4 b\n",
            encoding="utf-8",
        )
        assert main(["quartets", str(table)]) == 1
        err = capsys.readouterr().err
        assert "COND 3" in err
        assert "quartets are undefined" in err


class TestCheckBinary:
    def test_binary_encoding(self, caterpillar_table, capsys):
        assert main(["check-binary", caterpillar_table]) == 0
        assert capsys.readouterr().out == "binary: yes\n"

    def test_star_encoding_is_not_binary(self, tmp_path, capsys):
        path = write_tree(tmp_path, "(t1,t2,t3,t4,t5)a;")
        table = tmp_path / "star.table"
        main(["encode", path, "--output", str(table)])
        capsys.readouterr()
        assert main(["check-binary", str(table)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "binary: no\n"
        assert "COND *" in captured.err

    def test_non_metric_is_not_binary(self, two_cycle_table, capsys):
        assert main(["check-binary", two_cycle_table]) == 1
        assert capsys.readouterr().out == "binary: no\n"


class TestSelftestAndPlumbing:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert all(line.startswith("ok ") for line in lines)

    @pytest.mark.parametrize("command", ["encode", "verify", "reconstruct", "quartets", "check-binary"])
    def test_bytes_that_are_not_utf8_exit_3(self, tmp_path, capsys, command):
        path = tmp_path / "input"
        path.write_bytes(STAR4_TABLE.encode() + b"t1 t2 \xff a\n")
        assert main([command, str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_deep_unclosed_nesting_exits_3(self, tmp_path, capsys):
        path = write_tree(tmp_path, "(" * 3000)
        assert main(["encode", path]) == 3
        assert capsys.readouterr().err == "error: unexpected end of input (at position 3000)\n"

    def test_missing_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_module_entry_point(self, tmp_path):
        path = write_tree(tmp_path, "(x,y,z)m;")
        done = subprocess.run(
            [sys.executable, "-m", "tritree", "encode", str(path)],
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0
        assert done.stdout == "taxa: x y z\nsymbols: m\nx y z m\n"
