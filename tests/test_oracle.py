"""Exhaustive enumeration and the brute-force cross-checks."""

import pytest

from tritree import (
    SymbolAlphabet,
    TaxonSet,
    TernaryMap,
    brute_force_reconstruct,
    enumerate_colorings,
    enumerate_trees,
    find_nonthin_witness,
    trees_isomorphic,
)


class TestEnumeration:
    @pytest.mark.parametrize(
        "n, total, binary",
        [(3, 1, 1), (4, 4, 3), (5, 26, 15), (6, 236, 105)],
    )
    def test_topology_census(self, n, total, binary):
        enumeration = enumerate_trees(n)
        assert len(enumeration.topologies) == total
        assert len(enumeration.binary) == binary

    def test_seven_leaf_census(self):
        enumeration = enumerate_trees(7)
        assert len(enumeration.topologies) == 2752
        assert len(enumeration.binary) == 945

    def test_topologies_are_pairwise_distinct(self):
        keys = {t.canonical_key() for t in enumerate_trees(5).topologies}
        assert len(keys) == 26

    def test_default_taxa_and_ids(self):
        enumeration = enumerate_trees(4)
        assert enumeration.taxa == ("t1", "t2", "t3", "t4")
        for topology in enumeration.topologies:
            assert topology.interior_vertices() == tuple(
                v for v in sorted(topology.adjacency()) if v >= 4
            )

    def test_custom_taxa(self):
        enumeration = enumerate_trees(4, ("w", "z", "x", "y"))
        assert enumeration.taxa == ("w", "x", "y", "z")
        tree = enumeration.topologies[0].with_colors(
            dict.fromkeys(enumeration.topologies[0].interior_vertices(), "a")
        )
        assert set(tree.taxa.names) == {"w", "x", "y", "z"}

    def test_size_limits(self):
        with pytest.raises(ValueError, match="3 to 7"):
            enumerate_trees(2)
        with pytest.raises(ValueError, match="3 to 7"):
            enumerate_trees(8)
        with pytest.raises(ValueError, match="distinct taxa"):
            enumerate_trees(4, ("a", "a", "b", "c"))

    def test_rejects_a_taxon_that_is_no_string(self):
        with pytest.raises(ValueError, match=r"^expected 4 distinct taxa, got \('a', 'b', 'c', 1\)$"):
            enumerate_trees(4, ("a", "b", "c", 1))


class TestColorings:
    def test_star_topology_has_one_choice_per_symbol(self):
        star = next(
            t for t in enumerate_trees(5).topologies if len(t.interior_vertices()) == 1
        )
        assert len(list(enumerate_colorings(star, ("a", "b", "c")))) == 3

    def test_colorings_keep_adjacent_interiors_distinct(self):
        for topology in enumerate_trees(5).topologies:
            adjacency = topology.adjacency()
            for coloring in enumerate_colorings(topology, ("a", "b")):
                tree = topology.with_colors(coloring)
                assert tree.is_discriminating()
                assert set(coloring) == set(topology.interior_vertices())
                for v in topology.interior_vertices():
                    for u in adjacency[v]:
                        if u in coloring:
                            assert coloring[u] != coloring[v]

    def test_two_symbol_census_on_five_leaves(self):
        # The star has 2 proper colorings, the 10 two-vertex topologies and
        # the 15 binary topologies have 2 each: 2 + 20 + 30.
        total = sum(
            len(list(enumerate_colorings(t, ("a", "b"))))
            for t in enumerate_trees(5).topologies
        )
        assert total == 52


class TestBruteForce:
    def test_finds_the_encoded_tree(self, caterpillar):
        found = brute_force_reconstruct(caterpillar.encode())
        assert found is not None
        assert trees_isomorphic(found, caterpillar)

    def test_returns_none_for_non_encodings(self, two_cycle):
        assert brute_force_reconstruct(two_cycle) is None

    def test_refuses_seven_taxa(self):
        taxa = TaxonSet(tuple(f"t{i}" for i in range(7)))
        values = dict.fromkeys(taxa.triples(), "a")
        tmap = TernaryMap(taxa, SymbolAlphabet(frozenset("a")), values)
        with pytest.raises(ValueError, match="six taxa"):
            brute_force_reconstruct(tmap)


class TestWitnessSearch:
    def test_argument_checks(self):
        with pytest.raises(ValueError, match="six distinct taxa"):
            find_nonthin_witness(("x1", "x2", "x3", "x4", "x5"))
        with pytest.raises(ValueError, match="two symbols"):
            find_nonthin_witness(symbols=("a", "a"))

    def test_rejects_a_taxon_that_is_no_string(self):
        with pytest.raises(ValueError, match="^the search needs exactly six distinct taxa$"):
            find_nonthin_witness(("a", "b", "c", "d", "e", 1))
