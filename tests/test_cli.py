"""Command line behavior: data on stdout, diagnostics on stderr, stable exits."""

import io
import random
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tritree.cli as cli
from tritree import parse_newick, trees_isomorphic, write_newick
from tritree.cli import build_parser, main
from tritree.quartets import _scan_quartets, _text_chunks
from tritree.reconstruct import _certify, _top_down, certified_tree

import helpers
import reference_scans

STAR4_TABLE = (
    "taxa: t1 t2 t3 t4\n"
    "symbols: a\n"
    "t1 t2 t3 a\n"
    "t1 t2 t4 a\n"
    "t1 t3 t4 a\n"
    "t2 t3 t4 a\n"
)

# Not an encoding, yet the bottom-up route contracts t1 t2 t5 and closes a
# tree on what is left: only certifying that candidate rejects the map.
MISMATCH_TABLE = (
    "taxa: t1 t2 t3 t4 t5\n"
    "symbols: a b c\n"
    "t1 t2 t3 b\nt1 t2 t4 b\nt1 t2 t5 c\nt1 t3 t4 c\nt1 t3 t5 b\n"
    "t1 t4 t5 a\nt2 t3 t4 c\nt2 t3 t5 a\nt2 t4 t5 a\nt3 t4 t5 c\n"
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


def run_on_bytes(argv, data):
    """main on argv ending in "-", with data as the bytes of stdin; exit code,
    stdout and stderr."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def run_main(argv):
    """Exit code, stdout and stderr of one main call, usage exits included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def by_scans(argv, tmap):
    """Exit code, stdout and stderr of a verify, check-binary or quartets run,
    built from the reference scans."""
    command, flags = argv[0], set(argv[1:])
    strict = "--no-strict-star" not in flags
    if command == "quartets":
        violations = reference_scans.check_condition3(tmap)
        if not violations:
            return 0, reference_scans.scan_quartets(tmap).to_text(), ""
        undefined = "error: the map fails the 4-subset check, so its quartets are undefined\n"
        return 1, "", "".join(v.line + "\n" for v in violations) + undefined
    if command == "check-binary":
        report = helpers.scan_report(tmap, include_star=True, strict_star=strict)
        ok = report.is_metric and not report.star_violations
        lines = "".join(v.line + "\n" for v in report.violations + report.star_violations)
        return (0 if ok else 1), f"binary: {'yes' if ok else 'no'}\n", lines
    star = "--star" in flags
    report = helpers.scan_report(
        tmap, include_star=star, strict_star=strict, fail_fast="--fail-fast" in flags
    )
    err = f"metric: {'yes' if report.is_metric else 'no'}\n"
    if star:
        err += f"resolver check: {'pass' if not report.star_violations else 'fail'}\n"
    return (0 if report.is_metric else 1), report.to_text(), err


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

    @pytest.mark.parametrize("n", [400, 2000])
    def test_header_only_table_costs_what_it_holds(self, tmp_path, capsys, n):
        names = [f"t{i:04d}" for i in range(n)]
        table = tmp_path / "header.table"
        table.write_text("taxa: " + " ".join(names) + "\nsymbols: a\n", encoding="utf-8")
        tracemalloc.start()
        try:
            assert main(["verify", str(table)]) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        shown = ", ".join(f"t0000 t0001 {names[k]}" for k in range(2, 7))
        more = comb(n, 3) - 5
        assert capsys.readouterr().err == f"error: missing 3-subsets: {shown} (and {more} more)\n"
        assert peak < 5_000_000  # bytes: no array of C(n, 3) codes


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

    @pytest.mark.parametrize("trace", [False, True])
    def test_candidate_mismatch_exits_1(self, tmp_path, capsys, trace):
        table = tmp_path / "mismatch.table"
        table.write_text(MISMATCH_TABLE, encoding="utf-8")
        assert main(["reconstruct", str(table)] + ["--trace"] * trace) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("CONTRACT t1 t2 t5 -> @1 COLOR c\n" if trace else "") + (
            "error: no tree encodes this map: the candidate tree gives c on t1 t2 t3 "
            "where the map gives b\n"
        )

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

    def test_uncertified_map_is_certified_once(self, two_cycle_table, capsys, monkeypatch):
        calls = []

        def counted(tmap):
            calls.append(tmap)
            return _certify(tmap)

        monkeypatch.setattr("tritree.cli._certify", counted)
        monkeypatch.setattr("tritree.reconstruct._certify", counted)
        assert main(["quartets", two_cycle_table]) == 0
        assert capsys.readouterr().out.count("|") == 5
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "tmap, certified, chunks",
        [
            (helpers.cherry5().encode(), True, 1),
            (helpers.two_cycle_map(), False, 2),
            (helpers.caterpillar(12).encode(), True, 9),
        ],
    )
    def test_output_file_holds_the_stdout_bytes(self, tmp_path, capsys, tmap, certified, chunks):
        tree = certified_tree(tmap)
        assert (tree is not None) == certified
        positions = tree._quartet_positions() if certified else _scan_quartets(tmap)
        # One chunk of text per taxon that is the smallest of some quartet.
        assert sum(map(bool, _text_chunks(tmap.taxa.names, positions))) == chunks
        table, out = tmp_path / "map.table", tmp_path / "quartets.out"
        table.write_text(tmap.to_table_text(), encoding="utf-8")
        assert main(["quartets", str(table)]) == 0
        stdout = capsys.readouterr()
        assert stdout.out and not stdout.err
        assert main(["quartets", str(table), "-o", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert out.read_bytes() == stdout.out.encode()

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


class TestCertifyThenExplain:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify"],
            ["verify", "--star"],
            ["verify", "--star", "--no-strict-star"],
            ["verify", "--star", "--fail-fast"],
            ["check-binary"],
            ["check-binary", "--no-strict-star"],
            ["quartets"],
        ],
    )
    def test_output_equals_the_reference_scans(self, argv, two_cycle):
        tables = [two_cycle, helpers.star_tree(5).encode()]
        tables += helpers.random_encodings_and_perturbations(seed=6, count=4, max_n=9)
        for tmap in tables:
            got = run_on_bytes(argv + ["-"], tmap.to_table_text().encode())
            assert got == by_scans(argv, tmap), tmap.to_table_text()

    @pytest.mark.parametrize("command", ["verify", "check-binary", "quartets"])
    def test_a_rejection_builds_the_position_0_tree_once(self, monkeypatch, command):
        # Nor any tree from the near encoding: the star lines read the tree
        # built around the flip, a caterpillar rebuilt from a root outside it.
        tmap = helpers.perturbed(random.Random(5), helpers.caterpillar(16).encode(), 1, ("a", "b"))
        built = []

        def counted(on, root):
            built.append((on, root))
            return _top_down(on, root)

        monkeypatch.setattr("tritree.reconstruct._top_down", counted)
        monkeypatch.setattr("tritree.checks._top_down", counted)
        assert run_on_bytes([command, "-"], tmap.to_table_text().encode())[0] == 1
        assert all(on == tmap for on, _ in built)
        assert [root for _, root in built].count(0) == 1

    def test_quartets_equal_the_reference_scan_on_larger_trees(self):
        # Polytomies of degree 4 to 8, random trees up to 30 leaves, and a
        # caterpillar whose sorted names (t1, t10, ...) do not follow its path.
        rng = random.Random(13)
        trees = [helpers.forced_polytomy(rng, d, rng.randint(d, 16)) for d in range(4, 9)]
        trees += [helpers.random_tree(rng, n) for n in (12, 20, 30)]
        trees.append(helpers.caterpillar(22))
        for tree in trees:
            tmap = tree.encode()
            got = run_on_bytes(["quartets", "-"], tmap.to_table_text().encode())
            assert got == by_scans(["quartets"], tmap), write_newick(tree)


MANGLE_SEEDS = (
    STAR4_TABLE,
    helpers.caterpillar5().encode().to_table_text(),
    "(t1,t2,(t3,(t4,t5)c)b)a;",
    "((t2,t5)b,(t3,t6)b,t1,t4)a;\n",
)


@st.composite
def mangled(draw):
    """A table or Newick text with a few byte strings inserted or cut out."""
    data = draw(st.sampled_from(MANGLE_SEEDS)).encode()
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 4))
        data = data[:at] + draw(st.binary(max_size=4)) + data[at + cut :]
    return data


@settings(max_examples=120)
@given(st.one_of(st.binary(max_size=120), mangled()))
def test_arbitrary_bytes_get_an_exit_code_and_no_traceback(data):
    # An exception escaping main is what would print a traceback.
    for command in ("encode", "verify", "check-binary", "reconstruct", "quartets"):
        code, _, err = run_on_bytes([command, "-"], data)
        assert code in (0, 1, 2, 3)
        assert err.startswith("error: ") or code != 3


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

    @pytest.mark.parametrize(
        "command, data",
        [
            ("reconstruct", b"taxa: a b c\nsymbols: x\na b \xff x\n"),
            ("verify", STAR4_TABLE.replace("\n", "\r\n").encode()),
            ("encode", b"(t1,\r\n(t2,t3)a,t4;\r\n"),
        ],
    )
    def test_stdin_reads_like_a_file(self, tmp_path, capsys, command, data):
        path = tmp_path / "input"
        path.write_bytes(data)
        code = main([command, str(path)])
        from_file = capsys.readouterr()
        # Lenient decoding, as under a C locale, must not turn a bad byte
        # into a lone surrogate; newlines translate as in text mode.
        assert run_on_bytes([command, "-"], data) == (code, from_file.out, from_file.err)

    def test_deep_unclosed_nesting_exits_3(self, tmp_path, capsys):
        path = write_tree(tmp_path, "(" * 3000)
        assert main(["encode", path]) == 3
        assert capsys.readouterr().err == "error: unexpected end of input (at position 3000)\n"

    def test_missing_subcommand_is_a_usage_error(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert run_main([]) == (
            2,
            "",
            "usage: tritree [-h]\n"
            "               {encode,verify,reconstruct,quartets,check-binary,selftest} ...\n"
            "tritree: error: the following arguments are required: command\n",
        )

    def test_module_entry_point(self, tmp_path):
        path = write_tree(tmp_path, "(x,y,z)m;")
        done = helpers.run_python("-m", "tritree", "encode", str(path))
        assert done.returncode == 0
        assert done.stdout == "taxa: x y z\nsymbols: m\nx y z m\n"


class TestOneParserPerProcess:
    def test_reuse_changes_no_byte(self, caterpillar_table, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        commands = ("encode", "verify", "reconstruct", "quartets", "check-binary", "selftest")
        cases = [
            ["--help"],
            *([command, "--help"] for command in commands),
            [],
            ["nope"],
            ["verify"],
            ["verify", caterpillar_table, "--bogus"],
            ["check-binary", caterpillar_table, "--no-strict-star"],
        ]
        first = [run_main(argv) for argv in cases]
        second = [run_main(argv) for argv in cases]
        monkeypatch.setattr(cli, "_parser", build_parser)
        fresh = [run_main(argv) for argv in cases]
        assert first == second == fresh
        assert [code for code, _, _ in first] == [0] * 7 + [2] * 4 + [0]

    def test_no_option_carries_over_to_the_next_call(self, caterpillar_table):
        traced = run_main(["reconstruct", caterpillar_table, "--trace"])
        plain = run_main(["reconstruct", caterpillar_table])
        assert "CONTRACT " in traced[2] and "CONTRACT" not in plain[2]
        starred = run_main(["verify", caterpillar_table, "--star"])
        unstarred = run_main(["verify", caterpillar_table])
        assert "resolver check: " in starred[2] and "resolver check:" not in unstarred[2]

    def test_main_builds_its_parser_once(self, caterpillar_table, monkeypatch):
        built = []

        def counted():
            built.append(None)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        for command in ("verify", "reconstruct", "check-binary"):
            assert run_main([command, caterpillar_table])[0] == 0
        assert len(built) == 1
        assert build_parser() is not build_parser()
