"""Taxon sets, alphabets, ternary maps, and the triple-table text format."""

import random
import re
from itertools import permutations, product

import pytest
from hypothesis import given

from tritree import (
    NON_EVENT,
    MapBuildError,
    SymbolAlphabet,
    TableFormatError,
    TaxonSet,
    TernaryMap,
    UnknownTaxonError,
    build_ternary,
)

import helpers
import strategies


def small_map(values: dict[tuple[str, str, str], str]) -> TernaryMap:
    taxa = TaxonSet(("t1", "t2", "t3", "t4"))
    return TernaryMap(taxa, SymbolAlphabet(frozenset(("a", "b"))), values)


CONSTANT4 = {
    ("t1", "t2", "t3"): "a",
    ("t1", "t2", "t4"): "a",
    ("t1", "t3", "t4"): "a",
    ("t2", "t3", "t4"): "a",
}


def exactly(message: str) -> str:
    """A pattern for pytest.raises matching the whole message and nothing else."""
    return "^" + re.escape(message) + "$"


TABLE4 = "taxa: t1 t2 t3 t4\nsymbols: a b\n"
# 8 000 taxon names with one repeat: the duplicate report must not cost n^2.
MANY_NAMES = [f"t{i:04d}" for i in range(8000)] + ["t0042"]


class TestTaxonSet:
    def test_names_are_sorted(self):
        assert TaxonSet(("c", "a", "b")).names == ("a", "b", "c")

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate taxon names: a"):
            TaxonSet(("a", "a", "b"))

    @pytest.mark.parametrize(
        "names, message",
        [
            (("b", "c", "b", "a", "c", "b"), "duplicate taxon names: b c"),
            pytest.param(MANY_NAMES, "duplicate taxon names: t0042", id="8000-names"),
        ],
    )
    def test_names_every_duplicate_once(self, names, message):
        with pytest.raises(ValueError, match=exactly(message)):
            TaxonSet(tuple(names))

    def test_rejects_fewer_than_three(self):
        with pytest.raises(ValueError, match="at least three"):
            TaxonSet(("a", "b"))

    @pytest.mark.parametrize("bad", ["", "a b", "x,y", "p(q", "a;", "a#b", "x:y"])
    def test_rejects_unprintable_names(self, bad):
        with pytest.raises(ValueError):
            TaxonSet((bad, "b", "c"))

    def test_rejects_a_name_that_is_no_string(self):
        # Checked before sorting, which would raise a TypeError on mixed types.
        with pytest.raises(ValueError, match=exactly("taxon name must be a non-empty string, got 1")):
            TaxonSet(("b", 1, "a"))

    def test_membership_and_iteration(self):
        taxa = TaxonSet(("x", "y", "z"))
        assert "x" in taxa and "w" not in taxa
        assert len(taxa) == 3
        assert list(taxa) == ["x", "y", "z"]

    def test_require_raises_on_unknown(self):
        taxa = TaxonSet(("x", "y", "z"))
        taxa.require("x")
        with pytest.raises(UnknownTaxonError, match="unknown taxon 'w'"):
            taxa.require("w")

    def test_triples_and_subsets_counts(self):
        taxa = TaxonSet(tuple("abcde"))
        assert len(list(taxa.triples())) == 10
        assert len(list(taxa.subsets(4))) == 5
        assert all(tri == tuple(sorted(tri)) for tri in taxa.triples())


class TestSymbolAlphabet:
    def test_accepts_any_iterable(self):
        assert SymbolAlphabet(("b", "a")).sorted() == ("a", "b")

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="must not be empty"):
            SymbolAlphabet(frozenset())

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            SymbolAlphabet(frozenset(("ok", "no good")))

    def test_membership(self):
        alphabet = SymbolAlphabet(frozenset(("a", "b")))
        assert "a" in alphabet and "c" not in alphabet
        assert len(alphabet) == 2


class TestTernaryMap:
    def test_get_is_symmetric(self):
        tmap = small_map(CONSTANT4)
        assert tmap.get("t3", "t1", "t2") == "a"
        assert tmap.get("t2", "t3", "t1") == tmap.get("t1", "t2", "t3")

    @given(strategies.raw_maps(n=4, symbols=("a", "b")))
    def test_all_orderings_agree(self, tmap):
        for tri in tmap.taxa.triples():
            expected = tmap.triple_value(tri)
            for ordering in permutations(tri):
                assert tmap.get(*ordering) == expected

    def test_get_on_repeated_taxa_is_the_non_event(self):
        tmap = small_map(CONSTANT4)
        names = tmap.taxa.names
        for x, y, z in product(names, names, names):
            value = tmap.get(x, y, z)
            if len({x, y, z}) == 3:
                assert value == "a"
            else:
                assert value is NON_EVENT
        assert repr(NON_EVENT) == "NON_EVENT"

    @given(strategies.raw_maps(n=5, symbols=("a", "b")))
    def test_rebuilding_from_entries_is_the_identity(self, tmap):
        rebuilt = build_ternary(tmap.taxa, tmap.alphabet, dict(tmap.entries()))
        assert rebuilt == tmap

    def test_get_checks_taxa(self):
        tmap = small_map(CONSTANT4)
        with pytest.raises(UnknownTaxonError):
            tmap.get("t1", "t2", "nope")

    def test_entries_in_canonical_order(self):
        tmap = small_map(CONSTANT4)
        assert [tri for tri, _ in tmap.entries()] == list(tmap.taxa.triples())

    def test_used_symbols_can_be_smaller_than_alphabet(self):
        tmap = small_map(CONSTANT4)
        assert tmap.used_symbols() == frozenset(("a",))
        assert tmap.alphabet.sorted() == ("a", "b")

    def test_missing_triples_rejected(self):
        partial = dict(CONSTANT4)
        del partial[("t1", "t3", "t4")]
        with pytest.raises(MapBuildError, match="missing 3-subsets: t1 t3 t4"):
            small_map(partial)

    def test_symbol_outside_alphabet_rejected(self):
        bad = dict(CONSTANT4)
        bad[("t1", "t2", "t3")] = "z"
        with pytest.raises(MapBuildError, match="not in the declared alphabet"):
            small_map(bad)

    def test_repeated_taxon_in_triple_rejected(self):
        bad = dict(CONSTANT4)
        bad[("t1", "t1", "t2")] = "a"
        with pytest.raises(MapBuildError, match="repeated taxon"):
            small_map(bad)

    def test_non_string_value_rejected(self):
        bad = dict(CONSTANT4)
        bad[("t1", "t2", "t3")] = NON_EVENT
        with pytest.raises(MapBuildError, match="must be an alphabet symbol"):
            small_map(bad)

    def test_unhashable_value_rejected(self):
        bad = dict(CONSTANT4)
        bad[("t1", "t3", "t4")] = ["a"]
        message = "value for t1/t3/t4 must be an alphabet symbol, got ['a']"
        with pytest.raises(MapBuildError, match=exactly(message)):
            small_map(bad)

    def test_equality_ignores_declared_alphabet(self):
        taxa = TaxonSet(("t1", "t2", "t3", "t4"))
        narrow = TernaryMap(taxa, SymbolAlphabet(frozenset(("a",))), CONSTANT4)
        wide = small_map(CONSTANT4)
        assert narrow == wide
        assert hash(narrow) == hash(wide)

    def test_restrict_keeps_values(self):
        values = dict(CONSTANT4)
        values[("t2", "t3", "t4")] = "b"
        tmap = small_map(values)
        sub = tmap.restrict(("t2", "t3", "t4"))
        assert sub.taxa.names == ("t2", "t3", "t4")
        assert sub.triple_value(("t2", "t3", "t4")) == "b"

    def test_restrict_needs_three_taxa(self):
        with pytest.raises(ValueError, match="at least three"):
            small_map(CONSTANT4).restrict(("t1", "t2"))

    def test_repr_names_size_and_symbols(self):
        assert repr(small_map(CONSTANT4)) == "TernaryMap(n=4, symbols=a)"


class TestBuildTernary:
    def test_accepts_pairs_with_unordered_triples(self):
        taxa = TaxonSet(("t1", "t2", "t3", "t4"))
        entries = [(("t3", "t1", "t2"), "a")] + [
            (tri, "a") for tri in CONSTANT4 if tri != ("t1", "t2", "t3")
        ]
        tmap = build_ternary(taxa, SymbolAlphabet(frozenset(("a",))), entries)
        assert tmap.triple_value(("t1", "t2", "t3")) == "a"

    def test_tolerates_consistent_duplicates(self):
        taxa = TaxonSet(("t1", "t2", "t3", "t4"))
        entries = list(CONSTANT4.items()) + [(("t2", "t1", "t3"), "a")]
        build_ternary(taxa, SymbolAlphabet(frozenset(("a",))), entries)

    def test_rejects_conflicting_duplicates(self):
        taxa = TaxonSet(("t1", "t2", "t3", "t4"))
        entries = list(CONSTANT4.items()) + [(("t2", "t1", "t3"), "b")]
        with pytest.raises(MapBuildError, match="conflicting values for t1 t2 t3"):
            build_ternary(taxa, SymbolAlphabet(frozenset(("a", "b"))), entries)

    def test_rejects_wrong_arity(self):
        taxa = TaxonSet(("t1", "t2", "t3", "t4"))
        with pytest.raises(MapBuildError, match="exactly three taxa"):
            build_ternary(taxa, SymbolAlphabet(frozenset(("a",))), [(("t1", "t2"), "a")])

    @pytest.mark.parametrize(
        "entries, message",
        [
            # Per entry, in entry order: arity, repeated taxon, unknown taxon, conflict.
            (
                [(("t1", "t2", "t3"), "z"), (("t1", "t2", "t4", "t3"), "a")],
                "entry ('t1', 't2', 't4', 't3') does not name exactly three taxa",
            ),
            (
                [(("t2", "t1", "t2"), "a"), (("t1", "t2", "t9"), "a")],
                "3-subset with a repeated taxon: t2 t1 t2",
            ),
            ([(("t1", "t2", "t3"), 7), (("t4", "t9", "t1"), "a")], "unknown taxon 't9'"),
            # A conflict beats an earlier value that is no alphabet symbol.
            (
                [(("t1", "t2", "t3"), "z"), (("t1", "t2", "t4"), "a"), (("t4", "t2", "t1"), "b")],
                "conflicting values for t1 t2 t4: 'a' and 'b'",
            ),
            (
                [(("t3", "t2", "t1"), ["a"]), (("t1", "t2", "t3"), "a")],
                "conflicting values for t1 t2 t3: ['a'] and 'a'",
            ),
            (
                [(("t1", "t2", "t3"), "z"), (("t2", "t1", "t3"), "a")],
                "conflicting values for t1 t2 t3: 'z' and 'a'",
            ),
            # Then the first bad value in entry order, before any missing subset.
            (
                [(("t2", "t3", "t4"), "x"), (("t1", "t2", "t3"), 3)],
                "symbol 'x' is not in the declared alphabet",
            ),
            (
                [(("t4", "t3", "t2"), NON_EVENT), (("t1", "t2", "t3"), "x")],
                "value for t2/t3/t4 must be an alphabet symbol, got NON_EVENT",
            ),
            (
                [(("t1", "t3", "t4"), ["a"]), (("t4", "t1", "t3"), ["a"]), (("t1", "t2", "t3"), "x")],
                "value for t1/t3/t4 must be an alphabet symbol, got ['a']",
            ),
            ([(("t1", "t2", "t4"), "a")], "missing 3-subsets: t1 t2 t3, t1 t3 t4, t2 t3 t4"),
        ],
    )
    def test_first_complaint(self, entries, message):
        taxa = TaxonSet(("t1", "t2", "t3", "t4"))
        with pytest.raises((MapBuildError, ValueError), match=exactly(message)):
            build_ternary(taxa, SymbolAlphabet(frozenset(("a", "b"))), entries)


class TestTableText:
    def test_frozen_star_table(self, star4):
        assert star4.encode().to_table_text() == (
            "taxa: t1 t2 t3 t4\n"
            "symbols: a\n"
            "t1 t2 t3 a\n"
            "t1 t2 t4 a\n"
            "t1 t3 t4 a\n"
            "t2 t3 t4 a\n"
        )

    def test_comments_and_blank_lines_are_skipped(self):
        text = (
            "# header comment\n"
            "taxa: t1 t2 t3 t4\n"
            "\n"
            "symbols: a b   # trailing comment\n"
            "t1 t2 t3 a\n"
            "t1 t2 t4 a\n"
            "t1 t3 t4 a\n"
            "t2 t3 t4 b\n"
        )
        tmap = TernaryMap.from_table_text(text)
        assert tmap.triple_value(("t2", "t3", "t4")) == "b"

    @given(strategies.raw_maps(n=5, symbols=("a", "b", "c")))
    def test_roundtrip(self, tmap):
        assert TernaryMap.from_table_text(tmap.to_table_text()) == tmap

    def test_roundtrip_keeps_unused_symbols(self):
        tmap = small_map(CONSTANT4)
        back = TernaryMap.from_table_text(tmap.to_table_text())
        assert back.alphabet.sorted() == ("a", "b")

    @pytest.mark.parametrize(
        "text, complaint",
        [
            ("symbols: a\nt1 t2 t3 a\n", "headers must precede"),
            ("taxa: t1 t2 t3\ntaxa: t1 t2 t3\n", "repeated 'taxa:'"),
            ("taxa: t1 t2 t3\nsymbols: a\nsymbols: a\n", "repeated 'symbols:'"),
            ("taxa: t1 t2 t3\nsymbols: a\nt1 t2 a\n", "got 3 tokens"),
            ("taxa: t1 t2 @x\nsymbols: a\nt1 t2 @x a\n", "reserved"),
            ("symbols: a\n", "missing 'taxa:'"),
            ("taxa: t1 t2 t3\n", "missing 'symbols:'"),
            ("taxa: t1 t2 t3\nsymbols: a\n", "missing 3-subsets"),
            ("taxa: t1 t2 t3\nsymbols: a\nt1 t2 t4 a\n", "unknown taxon"),
            ("taxa: t1 t2 t3\nsymbols: a\nt1 t2 t3 b\n", "not in the declared alphabet"),
            (
                "taxa: t1 t2 t3\nsymbols: a b\nt1 t2 t3 a\nt3 t2 t1 b\n",
                "conflicting values",
            ),
            # Whole messages, where more than one complaint applies.
            (
                TABLE4 + "t1 t2 t3 z\nt1 t2 t4 a\nt4 t2 t1 b\n",
                exactly("conflicting values for t1 t2 t4: 'a' and 'b'"),
            ),
            (
                TABLE4 + "t1 t2 t3 z\nt3 t1 t2 a\n",
                exactly("conflicting values for t1 t2 t3: 'z' and 'a'"),
            ),
            (
                TABLE4 + "t1 t2 t3 a\nt2 t3 t4 q\n",
                exactly("symbol 'q' is not in the declared alphabet"),
            ),
            (
                TABLE4 + "t2 t4 t3 y\nt1 t2 t3 x\nt1 t2 t4 a\nt1 t3 t4 a\n",
                exactly("symbol 'y' is not in the declared alphabet"),
            ),
            (
                TABLE4 + "t1 t2 t3 a\nt1 t2 t3 a\nt2 t3 t4 b\n",
                exactly("missing 3-subsets: t1 t2 t4, t1 t3 t4"),
            ),
            (
                "taxa: t1 t2 t3 t4 t5 t6 t7\nsymbols: a\nt1 t2 t4 a\n",
                exactly(
                    "missing 3-subsets: t1 t2 t3, t1 t2 t5, t1 t2 t6, t1 t2 t7, t1 t3 t4 (and 29 more)"
                ),
            ),
            (
                TABLE4 + "t1 t2 t3 a\nt1 t2 t3 b\nt1 t2 t9 a\n",
                exactly("conflicting values for t1 t2 t3: 'a' and 'b'"),
            ),
            (TABLE4 + "t1 t2 t9 a\nt1 t2 t3 a\nt1 t2 t3 b\n", exactly("unknown taxon 't9'")),
            pytest.param(
                "taxa: " + " ".join(MANY_NAMES) + "\nsymbols: a\n",
                exactly("duplicate taxon names: t0042"),
                id="8000-names-one-repeat",
            ),
        ],
    )
    def test_malformed_tables(self, text, complaint):
        with pytest.raises(TableFormatError, match=complaint):
            TernaryMap.from_table_text(text)


class ReachedGeneralReader(Exception):
    pass


def refuse(*args):
    raise ReachedGeneralReader


def near_misses(text: str, rng: random.Random) -> dict[str, str]:
    """A canonical table text with one mistake each, by name, among lines
    chosen by rng; "unused symbol" alone is canonical again."""
    lines = text.split("\n")[:-1]
    taxa, symbols, body = lines[0].split()[1:], lines[1].split()[1:], lines[2:]
    at = rng.randrange(len(body))
    other = rng.choice([k for k in range(len(body)) if k != at] or [at])
    names, value = body[at].rsplit(" ", 1)
    swapped = body[:]
    swapped[at], swapped[other] = swapped[other], swapped[at]
    used = sorted({line.rsplit(" ", 1)[1] for line in body})

    def at_first(line: str) -> str:  # "@" sorts before the "t" of every name here
        return "@" + line if line.startswith(taxa[0] + " ") else line

    def table(taxa=taxa, symbols=symbols, body=body) -> str:
        return f"taxa: {' '.join(taxa)}\nsymbols: {' '.join(symbols)}\n" + "".join(
            line + "\n" for line in body
        )

    return {
        "double space": table(body=body[:at] + [body[at].replace(" ", "  ", 1)] + body[at + 1 :]),
        "comment": table(body=body[:at] + ["# a comment"] + body[at:]),
        "trailing blank line": text + "\n",
        "no final newline": text[:-1],
        "line dropped": table(body=body[:at] + body[at + 1 :]),
        "lines cut short": table(body=body[: at + 1]) if at + 1 < len(body) else text + "\n",
        "lines swapped": table(body=swapped),
        "used symbol undeclared": table(symbols=[s for s in symbols if s != used[-1]]),
        "unsorted taxa": table(taxa=taxa[::-1] if len(taxa) > 1 else taxa),
        "unused symbol": table(symbols=sorted(symbols + ["zz"])),
        "unsorted symbols": table(symbols=["zz"] + symbols),
        "repeated symbol": table(symbols=symbols + symbols[-1:]),
        "CRLF": text.replace("\n", "\r\n"),
        "tab": table(body=body[:at] + [body[at].replace(" ", "\t", 1)] + body[at + 1 :]),
        "duplicated line": table(body=body[:at] + [body[at]] + body[at:]),
        "conflicting duplicate": table(body=body[:at] + [f"{names} {value}x"] + body[at:]),
        # The last 3-subset again, its taxa turned round: a line the blocks do not reach.
        "conflict appended": table(body=body + [" ".join(taxa[-2:] + taxa[-3:-2] + ["zz"])]),
        "@ taxon": table(taxa=["@" + taxa[0]] + taxa[1:], body=[at_first(line) for line in body]),
    }


def parsed(text: str):
    """from_table_text's map and alphabet, or the type and message of its error."""
    try:
        tmap = TernaryMap.from_table_text(text)
    except Exception as exc:  # the differential compares whatever is raised
        return type(exc), str(exc)
    return tmap, tmap.alphabet


class TestCanonicalTables:
    """A table exactly as to_table_text writes it skips the general reader;
    any other text reaches it and gets the same answer as before."""

    @pytest.fixture
    def no_general_reader(self, monkeypatch):
        monkeypatch.setattr("tritree.core._checked_values", refuse)

    def test_an_encode_table_skips_the_general_reader(self, monkeypatch):
        tmap = helpers.random_tree(random.Random(2), 12).encode()
        tables = [tmap.to_table_text(), small_map(CONSTANT4).to_table_text()]
        monkeypatch.setattr("tritree.core._checked_values", refuse)
        assert TernaryMap.from_table_text(tables[0]) == tmap
        assert TernaryMap.from_table_text(tables[1]).alphabet.sorted() == ("a", "b")  # one unused

    @pytest.mark.parametrize(
        "mistake",
        [
            "double space",
            "comment",
            "trailing blank line",
            "no final newline",
            "line dropped",
            "lines swapped",
            "used symbol undeclared",
            "unsorted taxa",
        ],
    )
    def test_any_other_table_reaches_the_general_reader(self, no_general_reader, mistake):
        text = helpers.caterpillar(9).encode().to_table_text()
        with pytest.raises(ReachedGeneralReader):
            TernaryMap.from_table_text(near_misses(text, random.Random(3))[mistake])

    @pytest.mark.parametrize("cut", [1, 2, 3])
    def test_a_table_cut_short_reaches_the_general_reader(self, no_general_reader, cut):
        # Lines with a long symbol keep the text within the lengths the headers
        # allow, so only the count of lines tells the cut from a whole table.
        long = "b" * 40
        text = f"taxa: t1 t2 t3 t4\nsymbols: a {long}\n" + "".join(
            f"{' '.join(tri)} {long}\n" for tri in TaxonSet(("t1", "t2", "t3", "t4")).triples()
        )
        with pytest.raises(ReachedGeneralReader):
            TernaryMap.from_table_text(text[: len(text) - cut * len(f"t1 t2 t3 {long}\n")])

    def test_answers_equal_the_general_readers(self, monkeypatch):
        rng = random.Random(11)
        maps = [
            helpers.random_tree(rng, n, ("a", "bb", "cccc") if n % 2 else helpers.PALETTE).encode()
            for n in range(3, 31)
        ]
        maps += helpers.all_maps(5, ("a", "b"))
        texts = []
        for tmap in maps:
            text = tmap.to_table_text()
            assert TernaryMap._from_canonical_text(text) == tmap
            texts += [text, *near_misses(text, rng).values()]
        fast = [parsed(text) for text in texts]
        monkeypatch.setattr(TernaryMap, "_from_canonical_text", classmethod(lambda cls, text: None))
        assert fast == [parsed(text) for text in texts]
