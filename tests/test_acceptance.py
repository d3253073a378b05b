"""The ten acceptance criteria for the package, one test per criterion.

Each test runs inside the ``acceptance`` context manager, which prints one
PASS or FAIL line per criterion and repeats all lines in the terminal
summary.  The corpus is every topology on 4, 5, and 6 leaves with every
discriminating coloring over three symbols (capped per topology, see
helpers.colored_trees).
"""

import time

import pytest

from tritree import (
    K5Type,
    NotAMetricError,
    Quartet,
    brute_force_reconstruct,
    check_condition3,
    check_condition4,
    check_star,
    classify_k5,
    enumerate_colorings,
    enumerate_trees,
    equivalence_classes,
    find_nonthin_witness,
    generate_quartets,
    is_binary_encodable,
    is_complete,
    is_saturated,
    is_thin,
    is_transitive,
    non_thin_quadruples,
    reconstruct_tree,
    trees_isomorphic,
    verify_metric,
)

import helpers

SIZES = (4, 5, 6)


def corpus():
    for n in SIZES:
        yield from helpers.encoded_corpus(n)


def test_criterion_1_encodings_verify(acceptance):
    with acceptance(1, "every corpus encoding passes the metric checks"):
        start = time.perf_counter()
        for tree, tmap in corpus():
            report = verify_metric(tmap)
            assert report.is_metric, report.to_text()
        assert time.perf_counter() - start < 120


def test_criterion_2_reconstruction_inverts_encoding(acceptance):
    with acceptance(2, "reconstruction inverts encoding and matches brute force"):
        start = time.perf_counter()
        for n in SIZES:
            for tree, tmap in helpers.encoded_corpus(n):
                rebuilt = reconstruct_tree(tmap)
                assert trees_isomorphic(rebuilt, tree)
                if n <= 5:
                    brute = brute_force_reconstruct(tmap)
                    assert brute is not None
                    assert trees_isomorphic(brute, rebuilt)
        assert time.perf_counter() - start < 300


def test_criterion_3_generated_quartets_match_displayed(acceptance):
    with acceptance(3, "generated quartet systems equal displayed quartet systems"):
        for tree, tmap in corpus():
            assert generate_quartets(tmap) == tree.displayed_quartets()


def test_criterion_4_binary_characterization(acceptance):
    with acceptance(4, "the resolver check recognizes exactly the binary trees"):
        for tree, tmap in corpus():
            assert is_binary_encodable(tmap) == tree.is_binary()


def test_criterion_5_merge_classes_are_pseudo_cherries(acceptance):
    with acceptance(5, "nontrivial merge classes equal the pseudo-cherries"):
        for tree, tmap in corpus():
            assert equivalence_classes(tmap).nontrivial() == tree.pseudo_cherries()


def test_criterion_6_five_subsets_classify_to_tree_shapes(acceptance):
    with acceptance(6, "5-subsets of encodings classify to types 1, 3, 4, or 5"):
        allowed = {K5Type.TYPE1, K5Type.TYPE3, K5Type.TYPE4, K5Type.TYPE5}
        for tree, tmap in corpus():
            for five in tmap.taxa.subsets(5):
                assert classify_k5(tmap, five) in allowed


def test_criterion_7_two_cycle_negative_fixture(acceptance, two_cycle):
    with acceptance(7, "the two-5-cycle map fails exactly as expected"):
        report = verify_metric(two_cycle)
        assert not report.is_metric
        assert any(v.condition == "4" for v in report.violations)
        with pytest.raises(NotAMetricError):
            reconstruct_tree(two_cycle)
        system = generate_quartets(two_cycle)
        expected = {
            Quartet.of("y", "w", "z", "u"),
            Quartet.of("x", "u", "y", "z"),
            Quartet.of("x", "z", "u", "w"),
            Quartet.of("x", "y", "z", "w"),
            Quartet.of("x", "w", "y", "u"),
        }
        assert set(system.members) == expected
        assert not is_saturated(system)


def test_criterion_8_non_thin_witness_is_found_quickly(acceptance):
    with acceptance(8, "a resolver-passing map with a non-thin quartet system exists"):
        start = time.perf_counter()
        witness = find_nonthin_witness()
        elapsed = time.perf_counter() - start
        assert elapsed < 60
        assert len(witness.taxa) == 6
        assert check_condition3(witness) == ()
        assert check_star(witness) == ()
        assert check_condition4(witness) != ()
        system = generate_quartets(witness)
        heavy = non_thin_quadruples(system)
        assert len(heavy) == 2
        for quad in heavy:
            assert len(system.on_support(quad)) == 2


def test_criterion_9_acceptance_equals_image_on_four_taxa(acceptance):
    with acceptance(9, "accepted 4-taxon maps are exactly the tree encodings"):
        accepted = set()
        for tmap in helpers.all_maps(4, ("a", "b")):
            if verify_metric(tmap).is_metric:
                accepted.add(tmap)
        image = set()
        for topology in enumerate_trees(4).topologies:
            for coloring in enumerate_colorings(topology, ("a", "b")):
                image.add(topology.with_colors(coloring).encode())
        assert accepted == image
        assert len(accepted) == len(image)


def test_criterion_10_tree_quartet_systems_satisfy_the_predicates(acceptance):
    with acceptance(10, "displayed systems are thin, transitive, and saturated"):
        for tree, tmap in corpus():
            system = tree.displayed_quartets()
            assert is_thin(system)
            assert is_transitive(system)
            assert is_saturated(system)
            if tree.is_binary():
                assert is_complete(system)
