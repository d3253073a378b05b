"""Merging, contraction, and the top-down and bottom-up reconstructions."""

import random

import pytest
from hypothesis import given

from tritree import (
    ColoredTree,
    NotAMetricError,
    SymbolAlphabet,
    TaxonSet,
    build_ternary,
    contract_class,
    equivalence_classes,
    merge_symbol,
    parse_newick,
    reconstruct_tree,
    trees_isomorphic,
    verify_metric,
    write_newick,
)
from tritree.reconstruct import certified_tree

import helpers
import strategies


def map_over(symbols: str, values: str, n: int = 5):
    taxa = TaxonSet(tuple(f"t{i + 1}" for i in range(n)))
    alphabet = SymbolAlphabet(frozenset(symbols))
    return build_ternary(taxa, alphabet, dict(zip(taxa.triples(), values)))


def tree_with_taxon_at1():
    """A 7-taxon tree with a taxon named @1, which only the text readers reserve."""
    parsed = parse_newick("(((t5,t7)b,t4)a,(t2,t3)a,t1,t6)b;")
    leaves = {v: "@1" if t == "t3" else t for v, t in parsed.leaf_taxa.items()}
    return ColoredTree(parsed.edges, leaves, parsed.colors)


class TestMergeSymbol:
    def test_pseudo_cherry_pairs_merge(self, caterpillar):
        tmap = caterpillar.encode()
        assert merge_symbol(tmap, "t1", "t2") == "a"
        assert merge_symbol(tmap, "t5", "t4") == "c"

    def test_separated_pairs_do_not_merge(self, caterpillar):
        tmap = caterpillar.encode()
        assert merge_symbol(tmap, "t1", "t3") is None
        assert merge_symbol(tmap, "t2", "t5") is None

    def test_two_passing_symbols_are_an_error(self):
        taxa = TaxonSet(("t1", "t2", "t3", "t4"))
        values = {
            ("t1", "t2", "t3"): "a",
            ("t1", "t2", "t4"): "b",
            ("t1", "t3", "t4"): "a",
            ("t2", "t3", "t4"): "a",
        }
        tmap = build_ternary(taxa, SymbolAlphabet(frozenset("ab")), values)
        with pytest.raises(NotAMetricError, match="more than one symbol: a b"):
            merge_symbol(tmap, "t1", "t2")

    def test_argument_checks(self, caterpillar):
        tmap = caterpillar.encode()
        with pytest.raises(ValueError, match="two distinct taxa"):
            merge_symbol(tmap, "t1", "t1")

    @given(strategies.corpus_trees(sizes=(5, 6)))
    def test_merging_is_transitive_on_encodings(self, tree):
        tmap = tree.encode()
        for x, y, z in tmap.taxa.triples():
            first = merge_symbol(tmap, x, y)
            second = merge_symbol(tmap, y, z)
            if first is not None and second is not None:
                assert first == second
                assert merge_symbol(tmap, x, z) == first


class TestEquivalenceClasses:
    def test_classes_cover_the_taxa(self, caterpillar):
        grouped = equivalence_classes(caterpillar.encode())
        assert grouped.classes == (("t1", "t2"), ("t3",), ("t4", "t5"))
        assert grouped.symbols == ("a", None, "c")
        assert grouped.nontrivial() == ((("t1", "t2"), "a"), (("t4", "t5"), "c"))

    def test_star_collapses_to_one_class(self, star5):
        grouped = equivalence_classes(star5.encode())
        assert grouped.classes == (("t1", "t2", "t3", "t4", "t5"),)
        assert grouped.symbols == ("a",)

    def test_two_cycle_has_no_nontrivial_class(self, two_cycle):
        assert equivalence_classes(two_cycle).nontrivial() == ()

    def test_intransitive_merging_is_an_error(self):
        tmap = map_over("abc", "aaaaababac")
        with pytest.raises(NotAMetricError, match="not transitive: t1 and t2"):
            equivalence_classes(tmap)

    def test_mixed_symbols_in_one_group_is_an_error(self):
        tmap = map_over("abc", "aaaabbacca")
        with pytest.raises(NotAMetricError, match="mixes symbols"):
            equivalence_classes(tmap)


class TestContractClass:
    def test_contraction_keeps_outside_values(self, caterpillar):
        tmap = caterpillar.encode()
        step = contract_class(tmap, ("t4", "t5"), "c", "@1")
        assert step.members == ("t4", "t5")
        assert step.symbol == "c"
        assert step.new_taxon == "@1"
        reduced = step.reduced
        assert reduced.taxa.names == ("@1", "t1", "t2", "t3")
        assert reduced.triple_value(("t1", "t2", "t3")) == "a"
        assert reduced.triple_value(("@1", "t1", "t2")) == "a"
        assert reduced.triple_value(("@1", "t1", "t3")) == "b"

    def test_members_must_agree_on_every_outside_pair(self, caterpillar):
        tmap = caterpillar.encode()
        with pytest.raises(NotAMetricError, match="disagree on the pair t2 t4: values a b"):
            contract_class(tmap, ("t1", "t3"), "a", "@1")

    def test_argument_checks(self, caterpillar):
        tmap = caterpillar.encode()
        with pytest.raises(ValueError, match="at least two class members"):
            contract_class(tmap, ("t1",), "a", "@1")
        with pytest.raises(ValueError, match="already present"):
            contract_class(tmap, ("t1", "t2"), "a", "t3")
        with pytest.raises(ValueError, match="at least two taxa outside"):
            contract_class(tmap, ("t1", "t2", "t3", "t4"), "a", "@1")


class TestReconstruct:
    def test_roundtrips_the_fixtures(self, caterpillar, cherry_tree, star4, star5):
        for tree in (caterpillar, cherry_tree, star4, star5):
            rebuilt = reconstruct_tree(tree.encode())
            assert trees_isomorphic(rebuilt, tree)
            assert rebuilt.is_discriminating()

    def test_star_output_newick(self, star5):
        assert write_newick(reconstruct_tree(star5.encode())) == "(t1,t2,t3,t4,t5)a;"

    def test_shared_hub_between_two_classes(self):
        # Two pseudo-cherries plus two lone leaves all meet at one vertex.
        tree = parse_newick("((t2,t5)b,(t3,t6)b,t1,t4)a;")
        rebuilt = reconstruct_tree(tree.encode())
        assert trees_isomorphic(rebuilt, tree)

    def test_contraction_trace(self, caterpillar):
        steps = []
        reconstruct_tree(caterpillar.encode(), on_step=steps.append)
        assert [s.members for s in steps] == [("t1", "t2"), ("@1", "t3")]
        assert [s.symbol for s in steps] == ["a", "b"]
        assert [s.new_taxon for s in steps] == ["@1", "@2"]
        assert len(steps[0].reduced.taxa) == 4

    def test_star_needs_no_contraction(self, star5):
        steps = []
        reconstruct_tree(star5.encode(), on_step=steps.append)
        assert steps == []

    def test_composite_names_skip_an_input_taxon_on_a_traced_encoding(self):
        tree = tree_with_taxon_at1()
        steps = []
        rebuilt = reconstruct_tree(tree.encode(), on_step=steps.append)
        assert trees_isomorphic(rebuilt, tree)
        assert [s.new_taxon for s in steps] == ["@2", "@3", "@4"]

    def test_composite_names_skip_an_input_taxon_on_a_rejected_map(self):
        tree = tree_with_taxon_at1()
        values = dict(tree.encode().entries())
        values[("t1", "t4", "t5")] = "b"
        flipped = build_ternary(tree.taxa, SymbolAlphabet(frozenset("ab")), values)
        with pytest.raises(NotAMetricError):
            reconstruct_tree(flipped)

    def test_two_cycle_is_rejected(self, two_cycle):
        with pytest.raises(NotAMetricError, match="no pair of taxa merges"):
            reconstruct_tree(two_cycle)

    def test_agreement_with_verification_on_all_small_maps(self):
        # Exhaustive over the 16 two-symbol maps on four taxa.
        for tmap in helpers.all_maps(4, "ab"):
            try:
                tree = reconstruct_tree(tmap)
            except NotAMetricError:
                assert not helpers.metric_by_scans(tmap)
            else:
                assert helpers.metric_by_scans(tmap)
                assert tree.encode() == tmap

    @given(strategies.raw_maps(n=5, symbols=("a", "b")))
    def test_certificate_on_arbitrary_maps(self, tmap):
        try:
            tree = reconstruct_tree(tmap)
        except NotAMetricError:
            assert not helpers.metric_by_scans(tmap)
        else:
            assert tree.encode() == tmap
            assert helpers.metric_by_scans(tmap)

    @given(strategies.raw_maps(n=6, symbols=("a", "b", "c")))
    def test_certificate_on_three_symbol_maps(self, tmap):
        try:
            tree = reconstruct_tree(tmap)
        except NotAMetricError:
            assert not helpers.metric_by_scans(tmap)
        else:
            assert tree.encode() == tmap

    @given(strategies.corpus_trees())
    def test_roundtrip_over_the_corpus(self, tree):
        assert trees_isomorphic(reconstruct_tree(tree.encode()), tree)


def bottom_up(tmap):
    """The tree of a traced run, which also runs the explain route; None on rejection."""
    try:
        return reconstruct_tree(tmap, on_step=lambda step: None)
    except NotAMetricError:
        return None


class TestTopDown:
    """The accept route against the references: the corpus, the bottom-up
    route, and the metric conditions."""

    def test_accepts_every_corpus_encoding(self):
        for n in (3, 4, 5, 6):
            for tree, tmap in helpers.encoded_corpus(n):
                rebuilt = certified_tree(tmap)
                assert rebuilt is not None, tmap.to_table_text()
                assert trees_isomorphic(rebuilt, tree)

    def test_agrees_with_bottom_up_on_all_two_symbol_5_taxon_maps(self):
        for tmap in helpers.all_maps(5, "ab"):
            fast, slow = certified_tree(tmap), bottom_up(tmap)
            assert (fast is None) == (slow is None), tmap.to_table_text()
            if fast is not None:
                assert trees_isomorphic(fast, slow)

    def test_accepts_exactly_the_metric_three_symbol_5_taxon_maps(self):
        accepted = 0
        for tmap in helpers.all_maps(5, "abc"):
            fast = certified_tree(tmap)
            assert (fast is not None) == helpers.metric_by_scans(tmap), tmap.to_table_text()
            if fast is not None:
                # verify_metric's own route; without a tree it is the scans.
                accepted += 1
                for options in helpers.VERIFY_OPTIONS:
                    want = helpers.scan_report(tmap, **options)
                    assert verify_metric(tmap, **options) == want, tmap.to_table_text()
        # Colored trees on five taxa over three colors, one per encoding.
        assert accepted == len(helpers.colored_trees(5))

    def test_agrees_with_bottom_up_on_perturbed_encodings(self):
        rng = random.Random(20170202)
        for _ in range(200):
            tree = helpers.random_tree(rng, rng.randint(4, 10), ("a", "b", "c"))
            tmap = helpers.perturbed(rng, tree.encode(), rng.randint(1, 2))
            fast, slow = certified_tree(tmap), bottom_up(tmap)
            assert (fast is None) == (slow is None), tmap.to_table_text()
            if fast is not None:
                assert trees_isomorphic(fast, slow)

    def test_accepts_random_encodings_beyond_the_corpus(self):
        rng = random.Random(3)
        for n in (7, 12, 30):
            tree = helpers.random_tree(rng, n, ("a", "b", "c", "d"))
            rebuilt = certified_tree(tree.encode())
            assert rebuilt is not None
            assert trees_isomorphic(rebuilt, tree)

    def test_both_routes_give_one_tree_on_the_corpus(self):
        # Pins that traced and plain runs return one tree; a traced run also
        # grows the bottom-up candidate, which must encode the map.  Every
        # fourth tree keeps this quick.
        for _, tmap in helpers.encoded_corpus(6)[::4]:
            fast = reconstruct_tree(tmap)
            slow = reconstruct_tree(tmap, on_step=lambda step: None)
            assert (fast.edges, fast.colors) == (slow.edges, slow.colors), tmap.to_table_text()

    def test_both_routes_number_vertices_alike(self):
        tree = parse_newick("((((t1,t7)a,t3)b,(t4,t6)a)c,(t2,t5)b,t8)a;")
        fast = reconstruct_tree(tree.encode())
        slow = reconstruct_tree(tree.encode(), on_step=lambda step: None)
        assert (fast.edges, fast.colors) == (slow.edges, slow.colors)
        # Interior vertices count up from n in the order write_newick prints them.
        assert write_newick(fast) == "(((((t2,t5)b,t8)a,(t4,t6)a)c,t3)b,t1,t7)a;"
        assert [fast.colors[v] for v in sorted(fast.colors)] == ["a", "b", "c", "a", "b", "a"]

    def test_newick_reader_numbers_vertices_as_reconstruct_does(self):
        # The reader numbers interior vertices as their '(' opens; reconstruct
        # numbers them in the order the Newick text lists them: one rule.
        rng = random.Random(11)
        trees = [tree for n in (4, 5, 6) for tree in helpers.colored_trees(n)]
        trees += [helpers.random_tree(rng, rng.randint(4, 30)) for _ in range(300)]
        for tree in trees:
            built = reconstruct_tree(tree.encode())
            read = parse_newick(write_newick(built))
            assert (read.edges, read.colors, read.leaf_taxa) == (
                built.edges, built.colors, built.leaf_taxa
            ), write_newick(built)
