"""Quartets, quartet systems, generation from maps, and system predicates."""

from itertools import combinations

import pytest
from hypothesis import given

from tritree import (
    Quartet,
    QuartetSystem,
    TaxonSet,
    UnknownTaxonError,
    generate_quartets,
    is_complete,
    is_saturated,
    is_thin,
    is_transitive,
    non_thin_quadruples,
    pairings,
    partition_profile,
    resolved_quartet,
)

import helpers
import strategies


class TestQuartet:
    def test_canonical_order(self):
        q = Quartet.of("d", "c", "b", "a")
        assert q.first == ("a", "b")
        assert q.second == ("c", "d")
        assert str(q) == "a b | c d"

    def test_equal_under_reordering(self):
        assert Quartet.of("x", "y", "u", "v") == Quartet.of("v", "u", "y", "x")
        assert hash(Quartet.of("x", "y", "u", "v")) == hash(Quartet.of("y", "x", "v", "u"))

    def test_support(self):
        assert Quartet.of("p", "q", "r", "s").support == frozenset("pqrs")

    def test_needs_four_distinct_taxa(self):
        with pytest.raises(ValueError, match="four distinct taxa"):
            Quartet.of("p", "q", "p", "r")

    @pytest.mark.parametrize(
        "first, second", [(("a", "b", "c"), ("d",)), (("a",), ("b", "c", "d"))]
    )
    def test_sides_must_be_pairs(self, first, second):
        with pytest.raises(ValueError, match="four distinct taxa"):
            Quartet(first, second)

    def test_pairings_lists_all_three(self):
        assert pairings("a", "b", "c", "d") == (
            (("a", "b"), ("c", "d")),
            (("a", "c"), ("b", "d")),
            (("a", "d"), ("b", "c")),
        )


class TestQuartetSystem:
    def test_membership_iteration_and_text(self):
        taxa = TaxonSet(("p", "q", "r", "s", "t"))
        system = QuartetSystem(
            taxa, [Quartet.of("q", "p", "s", "r"), Quartet.of("p", "q", "s", "t")]
        )
        assert Quartet.of("p", "q", "r", "s") in system
        assert len(system) == 2
        assert [str(q) for q in system] == ["p q | r s", "p q | s t"]
        assert system.to_text() == "p q | r s\np q | s t\n"

    def test_on_support(self):
        taxa = TaxonSet(("p", "q", "r", "s", "t"))
        system = QuartetSystem(
            taxa, [Quartet.of("p", "q", "r", "s"), Quartet.of("p", "r", "q", "s")]
        )
        assert len(system.on_support(("p", "q", "r", "s"))) == 2
        assert system.on_support(("p", "q", "r", "t")) == ()

    def test_rejects_unknown_taxa(self):
        taxa = TaxonSet(("p", "q", "r", "s"))
        with pytest.raises(UnknownTaxonError):
            QuartetSystem(taxa, [Quartet.of("p", "q", "r", "z")])

    def test_unknown_taxon_error_ignores_the_hash_seed(self):
        code = (
            "from tritree import Quartet, QuartetSystem, TaxonSet\n"
            "QuartetSystem(TaxonSet(('a', 'b', 'c', 'd')), [Quartet(('a', 'b'), ('x', 'y'))])\n"
        )
        errors = set()
        for seed in ("2", "4"):
            with pytest.MonkeyPatch.context() as patch:
                patch.setenv("PYTHONHASHSEED", seed)
                errors.add(helpers.run_python("-c", code).stderr.splitlines()[-1])
        assert errors == {"tritree.core.UnknownTaxonError: unknown taxon 'x'"}


class TestResolvedQuartet:
    def test_resolver_splits_a_constant_4_subset(self):
        tmap = helpers.caterpillar5(("a", "b", "a")).encode()
        found = resolved_quartet(tmap, ("t1", "t2", "t4", "t5"), "t3")
        assert found == Quartet.of("t1", "t2", "t4", "t5")

    def test_no_resolver_in_a_constant_map(self, star5):
        tmap = star5.encode()
        assert resolved_quartet(tmap, ("t1", "t2", "t3", "t4"), "t5") is None

    def test_rejects_non_constant_4_subsets(self, caterpillar):
        tmap = caterpillar.encode()
        with pytest.raises(ValueError, match="constant"):
            resolved_quartet(tmap, ("t1", "t2", "t3", "t4"), "t5")

    def test_rejects_inside_taxon(self):
        tmap = helpers.caterpillar5(("a", "b", "a")).encode()
        with pytest.raises(ValueError):
            resolved_quartet(tmap, ("t1", "t2", "t4", "t5"), "t5")

    def test_rejects_an_unknown_taxon_inside_the_4_subset(self, two_cycle):
        with pytest.raises(UnknownTaxonError, match="unknown taxon 'nope'"):
            resolved_quartet(two_cycle, ("u", "w", "x", "nope"), "z")

    def test_rejects_a_repeated_taxon(self, two_cycle):
        with pytest.raises(ValueError, match="expected four distinct taxa"):
            resolved_quartet(two_cycle, ("u", "w", "x", "x"), "z")


class TestGeneration:
    def test_caterpillar_quartets(self, caterpillar):
        system = generate_quartets(caterpillar.encode())
        assert system == caterpillar.displayed_quartets()
        assert [str(q) for q in system] == [
            "t1 t2 | t3 t4",
            "t1 t2 | t3 t5",
            "t1 t2 | t4 t5",
            "t1 t3 | t4 t5",
            "t2 t3 | t4 t5",
        ]

    def test_star_generates_nothing(self, star5):
        assert len(generate_quartets(star5.encode())) == 0

    def test_two_cycle_quartets(self, two_cycle):
        assert [str(q) for q in generate_quartets(two_cycle)] == [
            "u w | x z",
            "u x | y z",
            "u y | w x",
            "u z | w y",
            "w z | x y",
        ]

    @given(strategies.corpus_trees())
    def test_generation_matches_the_tree(self, tree):
        assert generate_quartets(tree.encode()) == tree.displayed_quartets()

    def test_certified_route_matches_the_scan_on_the_corpus(self):
        for n in (4, 5, 6):
            for _, tmap in helpers.encoded_corpus(n):
                scanned = helpers.scanned_quartets(tmap)
                assert generate_quartets(tmap) == scanned, tmap.to_table_text()

    def test_certified_route_matches_the_scan_on_random_trees_and_perturbations(self):
        for tmap in helpers.random_encodings_and_perturbations(seed=5, count=10):
            scanned = helpers.scanned_quartets(tmap)
            assert generate_quartets(tmap) == scanned, tmap.to_table_text()

    @given(strategies.corpus_trees(sizes=(5, 6)))
    def test_all_resolvers_agree_on_an_encoding(self, tree):
        tmap = tree.encode()
        names = tmap.taxa.names
        for quad in combinations(names, 4):
            if len(partition_profile(tmap, quad).values()) != 1:
                continue
            induced = set()
            for e in names:
                if e in quad:
                    continue
                found = resolved_quartet(tmap, quad, e)
                if found is not None:
                    induced.add(found)
            assert len(induced) <= 1


class TestPredicates:
    def test_binary_tree_system(self, caterpillar):
        system = caterpillar.displayed_quartets()
        assert is_thin(system)
        assert is_complete(system)
        assert is_transitive(system)
        assert is_saturated(system)
        assert non_thin_quadruples(system) == ()

    def test_cherry_system_is_not_complete(self, cherry_tree):
        system = cherry_tree.displayed_quartets()
        assert is_thin(system) and is_transitive(system) and is_saturated(system)
        assert not is_complete(system)

    def test_empty_system(self, star5):
        system = star5.displayed_quartets()
        assert is_thin(system) and is_transitive(system) and is_saturated(system)
        assert not is_complete(system)

    def test_two_cycle_system_is_complete_but_not_saturated(self, two_cycle):
        system = generate_quartets(two_cycle)
        assert is_thin(system) and is_complete(system) and is_transitive(system)
        assert not is_saturated(system)

    def test_transitivity_needs_the_closing_quartet(self):
        taxa = TaxonSet(("t1", "t2", "t3", "t4", "t5"))
        partial = QuartetSystem(
            taxa, [Quartet.of("t1", "t2", "t3", "t5"), Quartet.of("t1", "t2", "t4", "t5")]
        )
        assert not is_transitive(partial)
        closed = QuartetSystem(
            taxa, list(partial.members) + [Quartet.of("t1", "t2", "t3", "t4")]
        )
        assert is_transitive(closed)

    def test_non_thin_quadruples_reports_heavy_supports(self):
        taxa = TaxonSet(("t1", "t2", "t3", "t4", "t5"))
        heavy = QuartetSystem(
            taxa, [Quartet.of("t1", "t2", "t3", "t4"), Quartet.of("t1", "t3", "t2", "t4")]
        )
        assert non_thin_quadruples(heavy) == (("t1", "t2", "t3", "t4"),)
        assert not is_thin(heavy)
