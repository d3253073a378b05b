"""Reconstruction of a colored tree from a ternary map, by two routes.

The accept route costs O(n^3), linear in the map's C(n, 3) triples.  Rooted
at the smallest taxon r, the median of r, x and y is the lowest common
ancestor of x and y, so the triples through r form a symbolic ultrametric.
Its discriminating rooted tree is built top-down: the vertex above a leaf set
S has the one color c for which the graph joining x and y in S whenever
value(r, x, y) differs from c is disconnected, and the components are its
children.  The result is certified against the map triple by triple.

The explain route is the paper's bottom-up contraction.  It runs when the
accept route finds no tree, so that every rejection says why, and as well
when its steps are observed (``--trace``); the tree returned is always the
accept route's, the only one by the paper.  Two taxa merge under a symbol m
when some triple through both takes the value m and every other triple takes
m through one exactly when it does through the other.  In a map that encodes
a tree, the classes of this relation with two or more members are exactly
the pseudo-cherries: the groups of all leaves sharing one interior vertex,
whose color is the class symbol.

Each contraction replaces a class by a composite taxon, named ``@1``,
``@2``, ... and skipping the input's own taxa (the table and Newick readers
ban ``@`` as the first character of a taxon; library maps may use it), read
through its first member.  So a reduced map is the input read through one
position per live taxon: the input's rows are read once per run, and a step
on m live taxa costs O(m^2) big-int tests (tests/reference_scans.py has the
loop over reduced maps).  The candidate tree is encoded and compared with
the map at the end, so every map that is not an encoding is rejected, at the
latest, there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count, product
from typing import Callable, Iterable

from .core import TaxonSet, TernaryMap, check_identifier
from .tree import ColoredTree, _median_colors, _renumbered

__all__ = [
    "ContractionStep",
    "EquivalenceClasses",
    "NotAMetricError",
    "contract_class",
    "equivalence_classes",
    "merge_symbol",
    "reconstruct_tree",
]


class NotAMetricError(ValueError):
    """The ternary map is not the encoding of any discriminating colored tree."""


def merge_symbol(tmap: TernaryMap, x: str, y: str) -> str | None:
    """The symbol under which two taxa merge, or None when there is none.

    At most one symbol can pass for a map satisfying the 4-subset check; two
    passing symbols therefore raise NotAMetricError.
    """
    tmap.taxa.require(x, y)
    if x == y:
        raise ValueError("merging is defined for two distinct taxa")
    return _merge_symbol(tmap, *(_pair_sets(tmap, tmap.taxa._index[t]) for t in (x, y)), x, y)


def _pair_sets(tmap: TernaryMap, x: int) -> dict[int, int]:
    """For each code in the row of position x, the pairs whose triple with x has
    it, one bit per pair with the first highest; -1 gives the pairs through x."""
    row = tmap._row(x)
    digits = bytes.maketrans(b"\0\1", b"01")
    return {m: int(bytes(map(m.__eq__, row)).translate(digits), 2) for m in set(row)}


def _merge_symbol(tmap: TernaryMap, at_x: dict, at_y: dict, x: str, y: str) -> str | None:
    """merge_symbol from the pair sets of x and y: the codes of triples through
    both whose pairs, read through x and through y, agree off x and y."""
    through_y, off = at_y[-1], ~(at_x[-1] | at_y[-1])
    passing = [
        tmap._symbols[m]
        for m in sorted(at_x.keys() & at_y.keys())
        if m >= 0 and at_x[m] & through_y and not (at_x[m] ^ at_y[m]) & off
    ]
    if len(passing) > 1:
        raise NotAMetricError(
            f"taxa {x} and {y} merge under more than one symbol: {' '.join(passing)}"
        )
    return passing[0] if passing else None


@dataclass(frozen=True)
class EquivalenceClasses:
    """Merge classes covering all taxa; singletons carry the symbol None."""

    classes: tuple[tuple[str, ...], ...]
    symbols: tuple[str | None, ...]

    def nontrivial(self) -> tuple[tuple[tuple[str, ...], str], ...]:
        """The classes with two or more members, as (members, symbol) pairs."""
        pairs = zip(self.classes, self.symbols)
        return tuple((members, symbol) for members, symbol in pairs if len(members) >= 2)


def equivalence_classes(tmap: TernaryMap) -> EquivalenceClasses:
    """Group the taxa by the merge relation.

    Raises NotAMetricError when merging fails to be an equivalence with one
    symbol per class: some pair in a connected group does not merge, or two
    pairs in one group merge under different symbols.  Maps that encode
    trees never trigger either.
    """
    names = tmap.taxa.names
    return _classes(tmap, names, [_pair_sets(tmap, i) for i in range(len(names))], -1)


def _classes(tmap: TernaryMap, names: list, sets: list, live: int) -> EquivalenceClasses:
    """equivalence_classes of the taxa names, whose pair sets are sets, each masked by live."""
    if live != -1:
        sets = [{m: pairs & live for m, pairs in at.items()} for at in sets]
    pair_symbol: dict[tuple[str, str], str] = {}
    adjacent: dict[str, set[str]] = {x: set() for x in names}
    for (i, x), (j, y) in combinations(enumerate(names), 2):
        symbol = _merge_symbol(tmap, sets[i], sets[j], x, y)
        if symbol is not None:
            pair_symbol[(x, y)] = symbol
            adjacent[x].add(y)
            adjacent[y].add(x)

    classes: list[tuple[str, ...]] = []
    symbols: list[str | None] = []
    placed: set[str] = set()
    for start in names:
        if start in placed:
            continue
        group, frontier = {start}, [start]
        while frontier:
            frontier = [u for v in frontier for u in adjacent[v] if u not in group]
            group.update(frontier)
        placed.update(group)
        members = tuple(sorted(group))
        seen: dict[str, tuple[str, str]] = {}
        for u, v in combinations(members, 2):
            got = pair_symbol.get((u, v))
            if got is None:
                raise NotAMetricError(
                    f"merging is not transitive: {u} and {v} belong to one merge group "
                    "but do not merge"
                )
            seen.setdefault(got, (u, v))
        if len(seen) > 1:
            (s1, (u1, v1)), (s2, (u2, v2)) = sorted(seen.items())[:2]
            raise NotAMetricError(
                f"one merge group mixes symbols: {u1} and {v1} merge under {s1} "
                f"while {u2} and {v2} merge under {s2}"
            )
        classes.append(members)
        symbols.append(next(iter(seen), None))
    return EquivalenceClasses(tuple(classes), tuple(symbols))


@dataclass(frozen=True)
class ContractionStep:
    """One reduction: a merge class replaced by a composite taxon."""

    members: tuple[str, ...]
    symbol: str
    new_taxon: str
    reduced: TernaryMap


def contract_class(
    tmap: TernaryMap, members: Iterable[str], symbol: str, new_name: str
) -> ContractionStep:
    """Replace a merge class by one composite taxon.

    Triples avoiding the class keep their values; a triple through the
    composite takes the value shared by all members, whose disagreement
    raises NotAMetricError.  At least two taxa must stay outside the class,
    otherwise no 3-subsets would remain.
    """
    group = tuple(sorted(set(members)))
    tmap.taxa.require(*group)
    if len(group) < 2:
        raise ValueError("a contraction needs at least two class members")
    check_identifier(new_name, "taxon name")
    if new_name in tmap.taxa:
        raise ValueError(f"new taxon {new_name!r} is already present")
    rest = [t for t in tmap.taxa if t not in set(group)]
    if len(rest) < 2:
        raise ValueError("a contraction needs at least two taxa outside the class")
    for u, v in combinations(rest, 2):
        through = {tmap.triple_value((x, u, v)) for x in group}
        if len(through) > 1:
            raise NotAMetricError(
                f"class members disagree on the pair {u} {v}: values {' '.join(sorted(through))}"
            )
    taxa = TaxonSet(tuple(rest) + (new_name,))
    old = [group[0] if t == new_name else t for t in taxa.names]  # all members read alike
    reduced = TernaryMap._of(taxa, tmap.alphabet, map(tmap.triple_value, combinations(old, 3)))
    return ContractionStep(group, symbol, new_name, reduced)


def _grow(tmap: TernaryMap, on_step: Callable[[ContractionStep], None] | None) -> None:
    """Run the bottom-up contraction on tmap, passing each step to on_step,
    and raise NotAMetricError when it fails or its tree does not encode tmap.

    Each contraction adds a vertex with the class symbol joined to its
    members' vertices; from then on the composite taxon stands for that
    vertex.  The class holding all but at most one taxon closes the tree.
    A class vertex may end up beside one of its own color; the tree is only
    encoded, and merging such an edge changes no median's color.
    """
    names, n = tmap.taxa.names, len(tmap.taxa)
    rows = [_pair_sets(tmap, i) for i in range(n)]
    at = {name: i for i, name in enumerate(names)}  # the position each live taxon reads
    vertex_of = dict(at)
    fresh = (f"@{k}" for k in count(1) if f"@{k}" not in tmap.taxa)
    edges: list[tuple[int, int]] = []
    colors: dict[int, str] = {}
    reduced, live = tmap, -1  # the pairs of live positions: all, until a taxon dies
    while True:
        alive = sorted(at)
        mergeable = _classes(tmap, alive, [rows[at[t]] for t in alive], live).nontrivial()
        if not mergeable:
            raise NotAMetricError("no pair of taxa merges, so the map encodes no tree")
        members, symbol = min(mergeable)
        hub = n + len(colors)
        colors[hub] = symbol
        if len(members) >= len(alive) - 1:
            edges.extend((vertex_of[t], hub) for t in alive)
            break
        new = next(fresh)
        first, *others = (rows[at[t]] for t in members)
        for at_x in others:
            live &= ~at_x[-1]  # the pairs through a position that dies
        outside = live & ~first[-1]
        if on_step is not None:
            on_step(contraction := contract_class(reduced, members, symbol, new))
            reduced = contraction.reduced
        elif any((first.get(m, 0) ^ at_x.get(m, 0)) & outside for at_x in others for m in at_x):
            reads = combinations([names[at[t]] for t in alive], 3)
            reduced = TernaryMap._of(TaxonSet(alive), tmap.alphabet, map(tmap.triple_value, reads))
            contract_class(reduced, members, symbol, new)  # raises: the members disagree
        edges.extend((vertex_of[t], hub) for t in members)
        vertex_of[new] = hub
        at = {t: p for t, p in at.items() if t not in members} | {new: at[members[0]]}
    encoded = ColoredTree(edges, dict(enumerate(names)), colors).encode()
    if encoded != tmap:
        pairs = zip(encoded.entries(), tmap.entries())
        tri, got, want = next((t, g, w) for (t, g), (_, w) in pairs if g != w)
        raise NotAMetricError(
            f"no tree encodes this map: the candidate tree gives {got} on "
            f"{' '.join(tri)} where the map gives {want}"
        )


def _split(group: list[int], value: list[list[int]], color: int) -> list[list[int]]:
    """Components of the graph on group joining x and y when value[x][y] != color."""
    left, parts = set(group), []
    while left:
        part = [left.pop()]
        for x in part:
            row = value[x]
            near = [y for y in left if row[y] != color]
            left.difference_update(near)
            part += near
        parts.append(part)
    return parts


def certified_tree(tmap: TernaryMap) -> ColoredTree | None:
    """The tree of the accept route, or None when the triples through the
    smallest taxon (position 0) build no tree or it does not encode the map.
    By the paper's characterization it is None exactly when the map fails the
    4- or 5-subset check.  A leaf set that does not split leaves a tree whose
    encoding is some other map, so comparing the encoding settles both."""
    return _certify(tmap)[0]


def _certify(tmap: TernaryMap) -> tuple[ColoredTree | None, tuple]:
    """certified_tree, and the _top_down edges, colors and encoding from position 0."""
    built = edges, colored, encoded = _top_down(tmap, 0)
    tree = ColoredTree(edges, dict(enumerate(tmap.taxa)), colored) if encoded == tmap else None
    return tree, built


def _top_down(tmap: TernaryMap, root: int) -> tuple[list, dict[int, str], TernaryMap]:
    """The edges, vertex colors and encoding of the tree built top-down from the
    triples through the taxon at position root; a leaf set that no color
    splits hangs as a star from one vertex.

    For leaf set S and x = S[0], the leaves y whose ancestor in common with x
    is highest give the vertex's color.  Ancestors of different colors
    compare exactly (the higher is that of whichever of y and z has with x
    the value y and z have), so the scan keeps every leaf seen at the highest
    level known.  LCAs are recorded as the tree grows, to encode it before
    any ColoredTree is made.
    """
    n = len(tmap.taxa)
    value = [[0] * n for _ in range(n)]  # map codes
    lca = [[root] * n for _ in range(n)]
    for (i, j), c in zip(combinations(range(n), 2), tmap._row(root)):
        value[i][j] = value[j][i] = c
    edges: list[tuple[int, int]] = []
    colors: dict[int, int] = {}
    stack = [([x for x in range(n) if x != root], root)]
    while stack:
        group, parent = stack.pop()
        if len(group) == 1:
            edges.append((group[0], parent))
            continue
        row = value[group[0]]
        top = [group[1]]
        for z in group[2:]:
            if row[z] == row[top[0]]:
                top.append(z)
            elif all(value[t][z] == row[z] for t in top):
                top = [z]
        color = row[top[0]]
        parts = _split(group, value, color)
        if len(parts) == 1:
            parts = [[x] for x in group]
        vertex = n + len(colors)
        colors[vertex] = color
        edges.append((vertex, parent))
        for a, b in combinations(parts, 2):
            for x, y in product(a, b):
                lca[x][y] = lca[y][x] = vertex
        stack.extend((part, vertex) for part in parts)
    colored = {v: tmap._symbols[c] for v, c in colors.items()}
    return edges, colored, TernaryMap._of(tmap.taxa, tmap.alphabet, _median_colors(lca, colored))


def reconstruct_tree(
    tmap: TernaryMap, on_step: Callable[[ContractionStep], None] | None = None
) -> ColoredTree:
    """The discriminating colored tree whose encoding is the given map.

    Raises NotAMetricError when no such tree exists, with the bottom-up
    route's reason.  ``on_step`` observes each contraction of that route, in
    order; passing it runs the route on accepted maps too.  The result is
    always the accept route's tree, numbered so that leaf i carries the i-th
    taxon in sorted order and interior vertices count up from n in the
    order write_newick prints them.
    """
    tree = certified_tree(tmap)
    if tree is None or on_step is not None:
        _grow(tmap, on_step)
    return _renumbered(tree)
