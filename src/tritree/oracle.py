"""Exhaustive small-case machinery, independent of the reconstruction code.

This module enumerates every unrooted tree topology on up to seven leaves by
repeated leaf insertion, colors them in every way that keeps adjacent interior
vertices distinct, and reconstructs maps by brute force, scanning all colored
trees.  It also searches for a map that passes the 4-subset and resolver
checks while inducing two quartets on one 4-subset, which shows that those
checks alone do not make the induced quartet system thin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Iterator, Mapping

from .checks import check_star
from .core import SymbolAlphabet, TaxonSet, TernaryMap
from .quartets import generate_quartets, non_thin_quadruples
from .tree import ColoredTree, canonical_code, trees_isomorphic

__all__ = [
    "Topology",
    "TreeEnumeration",
    "brute_force_reconstruct",
    "enumerate_colorings",
    "enumerate_trees",
    "find_nonthin_witness",
    "two_cycle_map",
]


@dataclass(frozen=True)
class Topology:
    """An unrooted tree shape with labeled leaves but uncolored interior."""

    edges: tuple[tuple[int, int], ...]
    leaf_taxa: tuple[tuple[int, str], ...]

    def adjacency(self) -> dict[int, tuple[int, ...]]:
        return {v: tuple(sorted(nbrs)) for v, nbrs in _shape_adjacency(self.edges).items()}

    def interior_vertices(self) -> tuple[int, ...]:
        leaf_ids = {v for v, _ in self.leaf_taxa}
        return tuple(sorted({v for e in self.edges for v in e} - leaf_ids))

    def is_binary(self) -> bool:
        adj = self.adjacency()
        return all(len(adj[v]) == 3 for v in self.interior_vertices())

    def with_colors(self, colors: Mapping[int, str]) -> ColoredTree:
        return ColoredTree(self.edges, dict(self.leaf_taxa), dict(colors))

    def canonical_key(self) -> tuple:
        return canonical_code(self.adjacency(), dict(self.leaf_taxa))


@dataclass(frozen=True)
class TreeEnumeration:
    """Every topology on a taxon set, one per isomorphism class."""

    n: int
    taxa: tuple[str, ...]
    topologies: tuple[Topology, ...]

    @property
    def binary(self) -> tuple[Topology, ...]:
        return tuple(t for t in self.topologies if t.is_binary())


# Shapes are grown over leaf ids 0..k-1 with interior ids negative, so a new
# leaf id never collides with an interior id.
_Edges = tuple[tuple[int, int], ...]


def _shape_adjacency(edges: _Edges) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def _insertions(edges: _Edges, new_leaf: int) -> Iterator[_Edges]:
    interior = sorted({v for e in edges for v in e if v < 0})
    for v in interior:
        yield edges + ((new_leaf, v),)
    fresh = min(interior) - 1
    for i, (u, v) in enumerate(edges):
        rest = edges[:i] + edges[i + 1 :]
        yield rest + ((u, fresh), (v, fresh), (new_leaf, fresh))


@lru_cache(maxsize=None)
def _shapes(n: int) -> tuple[_Edges, ...]:
    if n == 3:
        return (((0, -1), (1, -1), (2, -1)),)
    labels = {i: f"{i:02d}" for i in range(n)}
    kept: list[_Edges] = []
    seen: set[tuple] = set()
    for smaller in _shapes(n - 1):
        for grown in _insertions(smaller, n - 1):
            key = canonical_code(_shape_adjacency(grown), labels)
            if key not in seen:
                seen.add(key)
                kept.append(grown)
    return tuple(kept)


def enumerate_trees(n: int, taxa: tuple[str, ...] | None = None) -> TreeEnumeration:
    """All tree topologies on n leaves, 3 <= n <= 7, one per isomorphism class.

    Leaf i carries taxa[i] with taxa sorted; interior ids start at n.
    """
    if not 3 <= n <= 7:
        raise ValueError(f"enumeration supports 3 to 7 leaves, got {n}")
    names = tuple(f"t{i + 1}" for i in range(n)) if taxa is None else tuple(taxa)
    if len(names) != n or not all(isinstance(t, str) for t in names) or len(set(names)) != n:
        raise ValueError(f"expected {n} distinct taxa, got {taxa!r}")
    return _enumerate_trees_cached(n, tuple(sorted(names)))


@lru_cache(maxsize=None)
def _enumerate_trees_cached(n: int, names: tuple[str, ...]) -> TreeEnumeration:
    leaf_taxa = tuple(enumerate(names))

    def remap(v: int) -> int:
        # Interior ids -1, -2, ... become n, n+1, ...
        return v if v >= 0 else n - 1 - v

    topologies = []
    for shape in _shapes(n):
        edges = tuple(sorted(tuple(sorted((remap(u), remap(v)))) for u, v in shape))
        topologies.append(Topology(edges, leaf_taxa))
    return TreeEnumeration(n, names, tuple(topologies))


def enumerate_colorings(
    topology: Topology, symbols: tuple[str, ...]
) -> Iterator[dict[int, str]]:
    """Every coloring of the interior with adjacent interior vertices distinct."""
    palette = tuple(sorted(set(symbols)))
    interior = topology.interior_vertices()
    adjacency = topology.adjacency()

    def assign(i: int, chosen: dict[int, str]) -> Iterator[dict[int, str]]:
        if i == len(interior):
            yield dict(chosen)
            return
        v = interior[i]
        taken = {chosen[u] for u in adjacency[v] if u in chosen}
        for symbol in palette:
            if symbol not in taken:
                chosen[v] = symbol
                yield from assign(i + 1, chosen)
                del chosen[v]

    yield from assign(0, {})


def brute_force_reconstruct(tmap: TernaryMap) -> ColoredTree | None:
    """The colored tree encoding the map, found by scanning all candidates.

    Returns None when no tree matches.  Exhaustive, so limited to six taxa.
    Every tree whose encoding equals the map uses exactly the map's symbols,
    because each interior vertex is the median of some triple.
    """
    n = len(tmap.taxa)
    if n > 6:
        raise ValueError("exhaustive reconstruction is limited to six taxa")
    symbols = tuple(sorted(tmap.used_symbols()))
    match: ColoredTree | None = None
    for topology in enumerate_trees(n, tmap.taxa.names).topologies:
        for coloring in enumerate_colorings(topology, symbols):
            tree = topology.with_colors(coloring)
            if tree.encode() == tmap:
                if match is not None and not trees_isomorphic(match, tree):
                    raise RuntimeError("two non-isomorphic trees encode one map")
                match = tree
    return match


def _quad_balanced(values: Mapping[tuple[str, ...], str], keys: tuple) -> bool:
    """With two symbols: the four values are constant or split 2-2."""
    a, b, c, d = (values[k] for k in keys)
    return (a == b) + (a == c) + (a == d) in (1, 3)


def find_nonthin_witness(
    taxa: tuple[str, ...] | None = None, symbols: tuple[str, str] = ("A", "B")
) -> TernaryMap:
    """A map passing the 4-subset and resolver checks with a non-thin quartet system.

    Guided search on six taxa and two symbols: the two 4-subsets mixing the
    first pair with the second and with the third are pinned to constant
    values, the remaining twelve triples are scanned exhaustively, and each
    survivor of a fast 4-subset screen is tested in full.  The search is
    symmetric under renaming taxa and symbols, so pinning loses no witness.
    """
    names = tuple(taxa if taxa is not None else ("a1", "a2", "b1", "b2", "c1", "c2"))
    if len(names) != 6 or not all(isinstance(t, str) for t in names) or len(set(names)) != 6:
        raise ValueError("the search needs exactly six distinct taxa")
    palette = tuple(sorted(set(symbols)))
    if len(palette) != 2:
        raise ValueError("the search needs exactly two symbols")
    taxon_set = TaxonSet(names)
    alphabet = SymbolAlphabet(frozenset(palette))
    quads = [tuple(combinations(quad, 3)) for quad in taxon_set.subsets(4)]

    def survivor(values: dict[tuple[str, ...], str]) -> TernaryMap | None:
        if not all(_quad_balanced(values, keys) for keys in quads):
            return None
        tmap = TernaryMap(taxon_set, alphabet, values)
        if check_star(tmap, fail_fast=True) or not non_thin_quadruples(generate_quartets(tmap)):
            return None
        return tmap

    pinned_a = tuple(combinations(taxon_set.names[:4], 3))
    pinned_b = tuple(combinations(taxon_set.names[:2] + taxon_set.names[4:], 3))
    loose = tuple(t for t in taxon_set.triples() if t not in pinned_a + pinned_b)
    for value_a, value_b in product(palette, repeat=2):
        base = {**dict.fromkeys(pinned_a, value_a), **dict.fromkeys(pinned_b, value_b)}
        for bits in range(2 ** len(loose)):
            found = survivor(base | {t: palette[(bits >> i) & 1] for i, t in enumerate(loose)})
            if found is not None:
                return found
    raise RuntimeError("no witness exists over six taxa and two symbols")


def two_cycle_map() -> TernaryMap:
    """Two symbols tracing complementary 5-cycles over taxa u, w, x, y, z.

    Keying each pair of taxa by the value of the complementary triple, the
    'a' pairs form the cycle x-y-z-u-w-x and the 'b' pairs the cycle
    x-z-w-y-u-x.  Every 4-subset splits 2-2, the full 5-set splits 5-5, so
    the map passes the 4-subset check, fails the 5-subset check, and encodes
    no tree.
    """
    taxa = TaxonSet(("u", "w", "x", "y", "z"))
    a_triples = [("z", "u", "w"), ("x", "u", "w"), ("x", "y", "w"), ("x", "y", "z"), ("y", "z", "u")]
    entries = {}
    for tri in taxa.triples():
        on_a = any(set(tri) == set(t) for t in a_triples)
        entries[tri] = "a" if on_a else "b"
    return TernaryMap(taxa, SymbolAlphabet(frozenset(("a", "b"))), entries)
