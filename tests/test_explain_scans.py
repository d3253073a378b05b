"""The explain scans on integer positions against their frozen name-based
copies in reference_scans: the 4-subset, 5-subset and resolver scans, the
quartet scan, the merge relation and contraction, the bottom-up contraction
loop, and the public per-subset helpers they replaced, on every input the
same violations, classes, steps and error texts.  verify_metric, which scans
only around a nearby tree's mismatches where that costs less, must report
what the scans report."""

import random
from itertools import combinations
from math import comb

import pytest

import tritree.checks
from tritree import (
    ColoredTree,
    NotAMetricError,
    SymbolAlphabet,
    TaxonSet,
    TernaryMap,
    contract_class,
    equivalence_classes,
    merge_symbol,
    partition_profile,
    reconstruct_tree,
    resolved_quartet,
)
from tritree.cli import main
from tritree.reconstruct import _top_down

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
        assert tritree.checks.verify_metric(tmap, **options) == want, text
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


# reconstruct_tree runs the bottom-up contraction on the map's one code array,
# with pair sets masked by the live pairs; its steps and its NotAMetricError
# text must be those of the frozen loop over reduced maps.

GROW_FAILURES = (
    "merge under more than one symbol",
    "merging is not transitive",
    "one merge group mixes symbols",
    "class members disagree",
    "no pair of taxa merges",
    "no tree encodes this map",
)


def grown(grow, tmap, traced):
    """The steps grow passes to on_step, and its NotAMetricError text or None."""
    steps = []
    try:
        grow(tmap, steps.append if traced else None)
    except NotAMetricError as exc:
        return steps, str(exc)
    return steps, None


def grow_maps():
    """Every two-symbol and a sample of three-symbol 5-taxon maps, perturbed
    random trees on 4 to 14 taxa with 1 to 12 flips, and a one-flip 22-leaf
    caterpillar."""
    yield from helpers.all_maps(5, "ab")
    for index in random.Random(16).sample(range(3**10), 600):
        yield five_taxon_map("abc", index)
    rng = random.Random(16)
    for _ in range(150):
        n = rng.randint(4, 14)
        tmap = helpers.random_tree(rng, n).encode()
        yield helpers.perturbed(rng, tmap, min(rng.randint(1, 12), comb(n, 3)))
    yield helpers.perturbed(random.Random(5), helpers.caterpillar(22).encode(), 1, ("a", "b"))


def test_reconstruct_grows_as_the_frozen_loop():
    failures = set()
    for tmap in grow_maps():
        for traced in (False, True):
            got = grown(reconstruct_tree, tmap, traced)
            assert got == grown(ref.grow, tmap, traced), tmap.to_table_text()
            failures.update(kind for kind in GROW_FAILURES if kind in (got[1] or ""))
    assert failures == set(GROW_FAILURES)  # every message kind was compared


# verify_metric without a certified tree scans only the subsets through the
# 3-subsets where the map differs from a nearby tree's encoding, unless the
# full scans cost less; both routes must print what the full scans print.


def flipped_maps():
    """Seeded random trees on 4 to 30 taxa (every size up to 20), each with one,
    two and three triples flipped."""
    rng = random.Random(14)
    for n in [*range(4, 21), 22, 25, 30]:
        tmap = helpers.random_tree(rng, n).encode()
        for flips in (1, 2, 3):
            yield helpers.perturbed(rng, tmap, flips)


def random_maps():
    """Seeded maps on 6 to 12 taxa with every value drawn from a, b and c."""
    rng = random.Random(15)
    for n in range(6, 13):
        taxa = TaxonSet(tuple(f"t{i + 1}" for i in range(n)))
        values = {tri: rng.choice("abc") for tri in taxa.triples()}
        yield TernaryMap(taxa, SymbolAlphabet(frozenset("abc")), values)


def assert_verify_equals_the_scans(tmap, scans=ref):
    for options in helpers.VERIFY_OPTIONS:
        want = helpers.scan_report(tmap, scans=scans, **options)
        assert tritree.checks.verify_metric(tmap, **options) == want, tmap.to_table_text()


def test_verify_equals_the_scans_on_flipped_maps():
    # The frozen reference costs seconds per map past 12 taxa; beyond that the
    # package's full scans stand in, checked against it by the tests above.
    for tmap in flipped_maps():
        scans = ref if len(tmap.taxa) <= 12 else tritree.checks
        assert_verify_equals_the_scans(tmap, scans)


def test_verify_equals_the_scans_on_random_maps():
    for tmap in random_maps():
        assert_verify_equals_the_scans(tmap)
    assert_verify_equals_the_scans(helpers.two_cycle_map())


def undiscriminating_builds():
    """Forced polytomies with one or two triples flipped, and the trees that
    _top_down builds on them from every root when those are not
    discriminating, as near encodings."""
    rng = random.Random(3)
    for _ in range(60):
        degree = rng.randint(4, 7)
        tree = helpers.forced_polytomy(rng, degree, rng.randint(degree + 1, 12))
        tmap = helpers.perturbed(rng, tree.encode(), rng.randint(1, 2))
        for root in range(len(tmap.taxa)):
            built = edges, colors, encoded = _top_down(tmap, root)
            if not ColoredTree(edges, dict(enumerate(tmap.taxa)), colors).is_discriminating():
                yield tmap, (built, tmap._mismatches(encoded))


def test_star_lines_certify_a_built_tree_that_is_not_discriminating(monkeypatch):
    # A leaf set that no color splits hangs as a star, whose color may be its
    # parent's.  The discriminating tree of the encoding merges the two, so it
    # has star 4-subsets the built tree lacks, and the star lines read it.
    cases = list(undiscriminating_builds())
    want = [tritree.checks.check_star(tmap) for tmap, _ in cases]
    assert [tritree.checks._star_lines(tmap, near, True, False) for tmap, near in cases] == want
    monkeypatch.setattr(ColoredTree, "is_discriminating", lambda tree: True)
    as_built = [tritree.checks._star_lines(tmap, near, True, False) for tmap, near in cases]
    assert as_built != want  # reading the built tree would lose lines


def test_quartets_prints_the_4_subset_scan_on_flipped_maps(tmp_path, capsys):
    path = tmp_path / "flipped.table"
    for tmap in flipped_maps():
        path.write_text(tmap.to_table_text(), encoding="utf-8")
        lines = "".join(v.line + "\n" for v in tritree.checks.check_condition3(tmap))
        code = main(["quartets", str(path)])
        out, err = capsys.readouterr()
        if lines:
            error = "error: the map fails the 4-subset check, so its quartets are undefined\n"
            assert (code, out, err) == (1, "", lines + error), tmap.to_table_text()
        else:
            assert (code, err) == (0, ""), tmap.to_table_text()


class Raised(Exception):
    pass


def refuse(*args, **kwargs):
    raise Raised


def test_a_one_flip_map_takes_the_local_route(monkeypatch):
    rng = random.Random(3)
    tmap = helpers.perturbed(rng, helpers.random_tree(rng, 30).encode(), 1)
    wants = [helpers.scan_report(tmap, scans=tritree.checks, **o) for o in helpers.VERIFY_OPTIONS]
    assert wants[0].violations
    for name in ("check_condition3", "check_condition4", "check_star"):
        monkeypatch.setattr(tritree.checks, name, refuse)
    for options, want in zip(helpers.VERIFY_OPTIONS, wants):
        assert tritree.checks.verify_metric(tmap, **options) == want


def test_a_random_map_takes_the_full_scans(monkeypatch):
    tmap = list(random_maps())[-1]
    assert len(tmap.taxa) == 12
    monkeypatch.setattr(tritree.checks, "check_condition4", refuse)
    with pytest.raises(Raised):
        tritree.checks.verify_metric(tmap)
