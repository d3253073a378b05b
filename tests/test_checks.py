"""Condition checks, the resolver check, reports, and K5 classification."""

from itertools import combinations

import pytest
from hypothesis import given

from tritree import (
    K5Type,
    SymbolAlphabet,
    TaxonSet,
    build_ternary,
    check_condition3,
    check_condition4,
    check_star,
    classify_k5,
    is_binary_encodable,
    partition_profile,
    verify_metric,
)

import helpers
import strategies


@pytest.fixture
def caterpillar_map(caterpillar):
    return caterpillar.encode()


@pytest.fixture
def lopsided_map(caterpillar_map):
    """The caterpillar encoding with one triple flipped, breaking 4-subsets."""
    values = dict(caterpillar_map.entries())
    values[("t1", "t2", "t3")] = "c"
    return build_ternary(caterpillar_map.taxa, caterpillar_map.alphabet, values)


class TestPartitionProfile:
    def test_counts_by_symbol(self, caterpillar_map):
        profile = partition_profile(caterpillar_map, caterpillar_map.taxa.names)
        assert profile.counts == (("a", 3), ("b", 4), ("c", 3))
        assert profile.describe() == "a=3 b=4 c=3"
        assert profile.values() == ("a", "b", "c")

    def test_is_partitioned_ignores_order(self, two_cycle):
        profile = partition_profile(two_cycle, two_cycle.taxa.names)
        assert profile.is_partitioned(5, 5)
        taxa = TaxonSet(("t1", "t2", "t3", "t4"))
        values = dict.fromkeys(taxa.triples(), "a")
        values[("t2", "t3", "t4")] = "b"
        skewed = build_ternary(taxa, SymbolAlphabet(frozenset(("a", "b"))), values)
        quad = partition_profile(skewed, taxa.names)
        assert quad.is_partitioned(3, 1) and quad.is_partitioned(1, 3)
        assert not quad.is_partitioned(2, 2)

    def test_three_or_more_taxa_required(self, caterpillar_map):
        with pytest.raises(ValueError, match="at least three"):
            partition_profile(caterpillar_map, ("t1", "t2"))


class TestConditionChecks:
    def test_encodings_pass_both_conditions(self, caterpillar_map):
        assert check_condition3(caterpillar_map) == ()
        assert check_condition4(caterpillar_map) == ()

    def test_unbalanced_4_subset_is_reported(self, lopsided_map):
        lines = [v.line for v in check_condition3(lopsided_map)]
        assert lines[0] == "COND 3 SUBSET t1 t2 t3 t4 DETAIL values a=1 b=2 c=1"
        assert len(lines) > 1
        assert len(check_condition3(lopsided_map, fail_fast=True)) == 1

    def test_two_cycle_fails_only_the_5_subset_check(self, two_cycle):
        assert check_condition3(two_cycle) == ()
        violations = check_condition4(two_cycle)
        assert [v.line for v in violations] == [
            "COND 4 SUBSET u w x y z DETAIL values a=5 b=5"
        ]
        assert violations[0].condition == "4"
        assert violations[0].subset == ("u", "w", "x", "y", "z")

    def test_reported_subsets_reverify(self, lopsided_map, two_cycle):
        for violation in check_condition3(lopsided_map):
            profile = partition_profile(lopsided_map, violation.subset)
            assert len(profile.values()) > 2 or not profile.is_partitioned(2, 2)
        for violation in check_condition4(two_cycle):
            profile = partition_profile(two_cycle, violation.subset)
            assert profile.is_partitioned(5, 5)


class TestStarCheck:
    def test_binary_encoding_is_fully_resolved(self, caterpillar_map):
        assert check_star(caterpillar_map) == ()

    def test_star_tree_has_unresolved_4_subsets(self, star5):
        violations = check_star(star5.encode())
        assert len(violations) == 5
        assert violations[0].line == (
            "COND * SUBSET t1 t2 t3 t4 DETAIL constant value a with no resolving taxon"
        )
        assert len(check_star(star5.encode(), fail_fast=True)) == 1

    def test_no_outside_taxon_detail(self, star4):
        violations = check_star(star4.encode())
        assert violations[0].line == (
            "COND * SUBSET t1 t2 t3 t4 DETAIL constant value a and no taxa outside the 4-subset"
        )

    def test_loose_reading_needs_a_4_6_split(self):
        # e shows the values y and z beside the constant x of a b c d, yet the
        # ten values on a b c d e split 4-2-4, so neither reading finds a resolver.
        values = dict.fromkeys(combinations("abcd", 3), "x")
        for pair, value in zip(("ab", "cd", "ac", "bd", "ad", "bc"), "yyzzzz"):
            values[(*pair, "e")] = value
        tmap = build_ternary(TaxonSet(tuple("abcde")), SymbolAlphabet(frozenset("xyz")), values)
        want = ["COND * SUBSET a b c d DETAIL constant value x with no resolving taxon"]
        assert [v.line for v in check_star(tmap, strict=True)] == want
        assert [v.line for v in check_star(tmap, strict=False)] == want

    def test_strict_and_loose_agree_when_4_subsets_pass(self):
        # Exhaustive over all 1024 two-symbol maps on five taxa.
        for tmap in helpers.all_maps(5, "ab"):
            if check_condition3(tmap):
                continue
            strict = {v.subset for v in check_star(tmap, strict=True)}
            loose = {v.subset for v in check_star(tmap, strict=False)}
            assert strict == loose


class TestVerifyMetric:
    def test_report_on_an_encoding(self, caterpillar_map):
        report = verify_metric(caterpillar_map)
        assert report.is_metric
        assert not report.star_checked
        assert report.to_text() == ""

    def test_star_violations_do_not_unmake_a_metric(self, star5):
        report = verify_metric(star5.encode(), include_star=True)
        assert report.is_metric
        assert report.star_checked
        assert len(report.star_violations) == 5
        assert "COND *" in report.to_text()

    def test_two_cycle_report(self, two_cycle):
        report = verify_metric(two_cycle)
        assert not report.is_metric
        assert report.to_text() == "COND 4 SUBSET u w x y z DETAIL values a=5 b=5\n"

    def test_fail_fast_stops_at_the_first_violation(self, lopsided_map):
        report = verify_metric(lopsided_map, fail_fast=True)
        assert len(report.violations) == 1

    @given(strategies.corpus_trees(sizes=(6,)))
    def test_restrictions_of_a_metric_stay_metric(self, tree):
        tmap = tree.encode()
        names = tmap.taxa.names
        for size in (4, 5):
            for subset in combinations(names, size):
                assert verify_metric(tmap.restrict(subset)).is_metric


class TestCertifyThenExplain:
    """verify_metric's certified route against the reference scans."""

    def test_agrees_with_the_scans_on_all_two_symbol_5_taxon_maps(self):
        for tmap in helpers.all_maps(5, "ab"):
            for options in helpers.VERIFY_OPTIONS:
                want = helpers.scan_report(tmap, **options)
                assert verify_metric(tmap, **options) == want, tmap.to_table_text()

    def test_agrees_with_the_scans_on_random_trees_and_perturbations(self):
        accepted = 0
        for tmap in helpers.random_encodings_and_perturbations(seed=4, count=12):
            for options in helpers.VERIFY_OPTIONS[2:]:
                want = helpers.scan_report(tmap, **options)
                assert verify_metric(tmap, **options) == want, tmap.to_table_text()
            full = helpers.scan_report(tmap, include_star=True)
            assert is_binary_encodable(tmap) == (full.is_metric and not full.star_violations)
            accepted += full.is_metric
        # With this seed only the twelve encodings are metric.
        assert accepted == 12

    def test_star_detail_without_outside_taxa(self, star4):
        (violation,) = verify_metric(star4.encode(), include_star=True).star_violations
        assert violation.line == (
            "COND * SUBSET t1 t2 t3 t4 DETAIL constant value a and no taxa outside the 4-subset"
        )


class TestBinaryEncodable:
    def test_binary_tree_encoding(self, caterpillar_map):
        assert is_binary_encodable(caterpillar_map)

    def test_star_and_cherry_encodings_are_not(self, star5, cherry_tree):
        assert not is_binary_encodable(star5.encode())
        assert not is_binary_encodable(cherry_tree.encode())

    def test_non_metric_is_not(self, two_cycle):
        assert not is_binary_encodable(two_cycle)

    @pytest.mark.parametrize("strict", [True, False])
    def test_agrees_with_the_scans_under_either_reading(self, strict):
        maps = [
            *helpers.all_maps(5, "ab"),
            *helpers.all_maps(4, "abc"),
            *helpers.random_encodings_and_perturbations(seed=11, count=20),
        ]
        for tmap in maps:
            full = helpers.scan_report(tmap, include_star=True, strict_star=strict)
            want = full.is_metric and not full.star_violations
            assert is_binary_encodable(tmap) == want, tmap.to_table_text()


class TestClassifyK5:
    def test_all_five_shapes(self, caterpillar, cherry_tree, star5, two_cycle):
        three_colors = caterpillar.encode()
        assert classify_k5(three_colors, three_colors.taxa.names) is K5Type.TYPE1
        assert classify_k5(two_cycle, two_cycle.taxa.names) is K5Type.TYPE2
        two_colors = helpers.caterpillar5(("a", "b", "a")).encode()
        assert classify_k5(two_colors, two_colors.taxa.names) is K5Type.TYPE3
        cherry = cherry_tree.encode()
        assert classify_k5(cherry, cherry.taxa.names) is K5Type.TYPE4
        constant = star5.encode()
        assert classify_k5(constant, constant.taxa.names) is K5Type.TYPE5

    def test_unbalanced_map_is_invalid(self, lopsided_map):
        assert classify_k5(lopsided_map, lopsided_map.taxa.names) is K5Type.INVALID

    def test_subset_of_a_larger_map(self):
        tree = helpers.colored_trees(6)[0]
        tmap = tree.encode()
        five = tmap.taxa.names[:5]
        restricted = tmap.restrict(five)
        assert classify_k5(tmap, five) is classify_k5(restricted, five)

    def test_needs_five_distinct_taxa(self, caterpillar_map):
        with pytest.raises(ValueError, match="five distinct taxa"):
            classify_k5(caterpillar_map, ("t1", "t2", "t3", "t4"))
