"""The flat code store of TernaryMap against a plain dict reference.

DictMap keeps one value per sorted 3-subset of names, the way the package
once stored maps; every lookup, listing, restriction and comparison of the
store must give what the reference gives.
"""

import random
from itertools import combinations, permutations, product

from tritree import NON_EVENT, SymbolAlphabet, TaxonSet, TernaryMap, build_ternary

import helpers


class DictMap:
    """A ternary map as a dict from sorted name triples to symbols."""

    def __init__(self, names, values):
        self.names = tuple(sorted(names))
        self.values = {tuple(sorted(tri)): symbol for tri, symbol in values}

    def get(self, x, y, z):
        if len({x, y, z}) < 3:
            return NON_EVENT
        return self.values[tuple(sorted((x, y, z)))]

    def entries(self):
        return tuple((tri, self.values[tri]) for tri in combinations(self.names, 3))

    def used_symbols(self):
        return frozenset(self.values.values())

    def restrict(self, keep):
        kept = sorted(set(keep))
        return DictMap(kept, ((tri, self.values[tri]) for tri in combinations(kept, 3)))

    def key(self):
        return self.names, tuple(sorted(self.values.items()))


def agree(tmap: TernaryMap, ref: DictMap) -> None:
    assert tmap.taxa.names == ref.names
    names = ref.names
    for x, y, z in product(names, repeat=3):
        assert tmap.get(x, y, z) == ref.get(x, y, z)
    for tri in combinations(names, 3):
        for ordering in permutations(tri):
            assert tmap.triple_value(ordering) == ref.values[tri]
    assert tmap.entries() == ref.entries()
    assert tmap.used_symbols() == ref.used_symbols()


def five_taxon_maps():
    """Every two-symbol map on t1..t5, each with a reference built from its values."""
    triples = tuple(combinations(("t1", "t2", "t3", "t4", "t5"), 3))
    for tmap, values in zip(helpers.all_maps(5, "ab"), product("ab", repeat=len(triples))):
        yield tmap, DictMap(tmap.taxa.names, zip(triples, values))


def random_maps():
    for tmap in helpers.random_encodings_and_perturbations(seed=11, count=12, max_n=14):
        yield tmap, DictMap(tmap.taxa.names, tmap.entries())


def test_every_two_symbol_map_on_five_taxa():
    maps = list(five_taxon_maps())
    assert len(maps) == 1024
    rng = random.Random(5)
    for tmap, ref in maps:
        agree(tmap, ref)
        keep = rng.sample(ref.names, rng.randint(3, 5))
        agree(tmap.restrict(keep), ref.restrict(keep))
    # Equal exactly when the references are, with equal hashes.
    keys = {}
    for tmap, ref in maps:
        assert keys.setdefault(ref.key(), tmap) == tmap
        assert hash(keys[ref.key()]) == hash(tmap)
    assert len({tmap for tmap, _ in maps}) == len(keys) == 1024


def test_random_maps():
    rng = random.Random(3)
    for tmap, ref in random_maps():
        agree(tmap, ref)
        for _ in range(5):
            keep = rng.sample(ref.names, rng.randint(3, len(ref.names)))
            agree(tmap.restrict(keep), ref.restrict(keep))
            assert (tmap.restrict(keep) == tmap) == (len(keep) == len(ref.names))


def test_equality_and_hash_ignore_the_declared_alphabet():
    for tmap, ref in list(random_maps())[:9]:
        wide = TernaryMap(tmap.taxa, SymbolAlphabet(("a", "b", "c", "d", "e", "z")), ref.values)
        narrow = TernaryMap(tmap.taxa, SymbolAlphabet(ref.used_symbols()), ref.values)
        assert wide == narrow == tmap
        assert hash(wide) == hash(narrow) == hash(tmap)
        assert wide.alphabet != narrow.alphabet
        agree(wide, ref)
        flipped = dict(ref.values)
        tri = next(iter(flipped))
        flipped[tri] = "z" if flipped[tri] != "z" else "a"
        assert TernaryMap(tmap.taxa, wide.alphabet, flipped) != wide


def test_many_symbols_widen_the_codes():
    taxa = TaxonSet(tuple(f"t{i:02d}" for i in range(13)))
    triples = list(taxa.triples())
    symbols = [f"s{c}" for c in range(len(triples))]  # 286 distinct, 366 declared
    alphabet = SymbolAlphabet(symbols + [f"u{c}" for c in range(80)])
    tmap = build_ternary(taxa, alphabet, dict(zip(triples, symbols)))
    ref = DictMap(taxa.names, zip(triples, symbols))
    agree(tmap, ref)
    assert tmap == TernaryMap.from_table_text(tmap.to_table_text())
    keep = taxa.names[::2]
    agree(tmap.restrict(keep), ref.restrict(keep))
