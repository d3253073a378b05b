"""The explain scans on integer positions against their frozen name-based
copies in reference_scans: the 4-subset, 5-subset and resolver scans, the
quartet scan, the merge relation and contraction, and the public per-subset
helpers they replaced, on every input the same violations, classes and
error texts."""

import random
from itertools import combinations

import pytest

import tritree.checks
from tritree import (
    SymbolAlphabet,
    TaxonSet,
    TernaryMap,
    contract_class,
    equivalence_classes,
    merge_symbol,
    partition_profile,
    resolved_quartet,
)

import helpers
import reference_scans as ref


def outcome(fn, *args):
    """fn's result, or the type and text of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def assert_same_explanations(tmap, resolvers=True):
    """Every explain path of the package equals its reference on tmap."""
    text = tmap.to_table_text()
    for options in helpers.VERIFY_OPTIONS:
        want = helpers.scan_report(tmap, **options)
        assert helpers.scan_report(tmap, scans=tritree.checks, **options) == want, text
    assert helpers.scanned_quartets(tmap) == ref.scan_quartets(tmap), text
    names = tmap.taxa.names
    for x, y in combinations(names, 2):
        assert outcome(merge_symbol, tmap, x, y) == outcome(ref.merge_symbol, tmap, x, y), text
    classes = outcome(equivalence_classes, tmap)
    assert classes == outcome(ref.equivalence_classes, tmap), text
    if not isinstance(classes, tuple):
        for members, symbol in classes.nontrivial():
            args = (tmap, members, symbol, "@1")
            assert outcome(contract_class, *args) == outcome(ref.contract_class, *args), text
    if resolvers:
        for size in range(3, min(len(names), 5) + 1):
            for subset in combinations(names, size):
                assert partition_profile(tmap, subset) == ref.partition_profile(tmap, subset)
        for quad in combinations(names, 4):
            for e in names:
                args = (tmap, quad, e)
                assert outcome(resolved_quartet, *args) == outcome(ref.resolved_quartet, *args)


def five_taxon_map(symbols, index):
    """The index-th map of helpers.all_maps(5, symbols), for sampling."""
    taxa = TaxonSet(("t1", "t2", "t3", "t4", "t5"))
    values = [symbols[index // len(symbols) ** p % len(symbols)] for p in range(9, -1, -1)]
    return TernaryMap(taxa, SymbolAlphabet(frozenset(symbols)), dict(zip(taxa.triples(), values)))


def test_all_two_symbol_5_taxon_maps():
    for tmap in helpers.all_maps(5, "ab"):
        assert_same_explanations(tmap)


def test_sampled_three_symbol_5_taxon_maps():
    for index in random.Random(20170808).sample(range(3**10), 2000):
        assert_same_explanations(five_taxon_map("abc", index))


def test_random_encodings_and_perturbations():
    for tmap in helpers.random_encodings_and_perturbations(seed=8, count=12):
        assert_same_explanations(tmap, resolvers=len(tmap.taxa) <= 8)


@pytest.mark.parametrize("n", [3, 4])
def test_maps_without_4_subsets_or_outside_taxa(n):
    for tmap in helpers.all_maps(n, "abc"):
        assert_same_explanations(tmap)
