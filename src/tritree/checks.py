"""Partition checks that decide whether a ternary map encodes a tree.

Symmetry and the repeated-argument rule hold for every TernaryMap by
construction, so the checks here cover the two counting conditions and the
resolver condition:

* 4-subset check: the four values inside a 4-subset are either all equal or
  split two against two;
* 5-subset check: the ten values inside a 5-subset never split five against five;
* resolver check: every 4-subset whose four inner values agree is resolved
  by some outside taxon (see quartets.resolved_quartet).

A map is accepted as a metric when the 4- and 5-subset checks pass.  The
resolver check is reported separately: together with the others it marks the
maps encoded by binary trees.

verify_metric accepts in O(n^3): a map passes both subset checks exactly when
reconstruct.certified_tree finds its tree, whose star 4-subsets are then the
resolver check's failures.  A rejected map is explained from the encoding of
a tree built close to it: every violating subset holds a 3-subset on which
the two differ, so only the subsets through one are tested, unless the full
scans cost less.  The scans work on sorted positions: they read 4-subsets
from TernaryMap._quads and a fifth taxon's codes from its _row, and name taxa
only in a Violation; tests/reference_scans.py has name-based copies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from heapq import merge
from itertools import combinations, groupby, islice, product
from math import comb
from typing import Iterable, Iterator, Sequence

from .core import TaxonSet, TernaryMap
from .quartets import _resolution, _through
from .reconstruct import _certify, _top_down, certified_tree
from .tree import ColoredTree

__all__ = [
    "K5Type",
    "MetricReport",
    "PartitionProfile",
    "Violation",
    "check_condition3",
    "check_condition4",
    "check_star",
    "classify_k5",
    "is_binary_encodable",
    "partition_profile",
    "verify_metric",
]


@dataclass(frozen=True)
class PartitionProfile:
    """How often each symbol occurs among the triples inside one subset."""

    subset: tuple[str, ...]
    counts: tuple[tuple[str, int], ...]

    def values(self) -> tuple[str, ...]:
        return tuple(sym for sym, _ in self.counts)

    def is_partitioned(self, a: int, b: int) -> bool:
        """Exactly two symbols whose multiplicities are a and b in either order."""
        if len(self.counts) != 2:
            return False
        return sorted(count for _, count in self.counts) == sorted((a, b))

    def describe(self) -> str:
        return " ".join(f"{sym}={count}" for sym, count in self.counts)


def partition_profile(tmap: TernaryMap, subset: Iterable[str]) -> PartitionProfile:
    """Count the symbols on all triples inside a subset of at least three taxa."""
    members = tuple(sorted(set(subset)))
    if len(members) < 3:
        raise ValueError(f"a partition profile needs at least three taxa, got {len(members)}")
    tmap.taxa.require(*members)
    tally = Counter(map(tmap.triple_value, combinations(members, 3)))
    return PartitionProfile(members, tuple(sorted(tally.items())))


@dataclass(frozen=True)
class Violation:
    """One subset on which a check fails; condition is '3', '4', or '*'."""

    condition: str
    subset: tuple[str, ...]
    detail: str

    @property
    def line(self) -> str:
        return f"COND {self.condition} SUBSET {' '.join(self.subset)} DETAIL {self.detail}"


def _violation(condition: str, tmap: TernaryMap, at: Sequence[int], codes: Sequence) -> Violation:
    """The line for the subset at sorted positions, from the codes of all its
    3-subsets in any order; codes sort as their symbols do."""
    detail = " ".join(f"{tmap._symbols[c]}={codes.count(c)}" for c in sorted(set(codes)))
    return Violation(condition, tuple(map(tmap.taxa.names.__getitem__, at)), "values " + detail)


def _star(taxa: TaxonSet, at: tuple[int, ...], value: str) -> Violation:
    """The resolver check's line for the constant 4-subset at these positions."""
    where = "with no resolving taxon" if len(taxa) > 4 else "and no taxa outside the 4-subset"
    return Violation("*", tuple(taxa.names[p] for p in at), f"constant value {value} {where}")


def check_condition3(tmap: TernaryMap, *, fail_fast: bool = False) -> tuple[Violation, ...]:
    """4-subsets whose inner values are neither constant nor split 2-2."""
    found = []
    for i, j, k, l, a, b, c, d in tmap._quads():
        if a == b and c == d or a == c and b == d or a == d and b == c:
            continue
        found.append(_violation("3", tmap, (i, j, k, l), (a, b, c, d)))
        if fail_fast:
            break
    return tuple(found)


def check_condition4(tmap: TernaryMap, *, fail_fast: bool = False) -> tuple[Violation, ...]:
    """5-subsets whose ten inner values split 5-5."""
    found = []
    n = len(tmap.taxa)
    rows: list[list[int]] = []
    for i, j, k, l, a, b, c, d in tmap._quads():
        four = (a, b, c, d)
        if l + 1 == n or len(set(four)) > 2:
            continue
        need = 5 - four.count(a)  # a 5-5 split holds the code a of i j k five times
        rows = rows or [[]] * 4 + [tmap._row(m) for m in range(4, n)]  # as m > l >= 3
        sixes = map(_through(tmap.taxa, i, j, k, l), rows[l + 1 :])
        for m, six in enumerate(sixes, l + 1):
            if six.count(a) == need and len(set(six).union(four)) == 2:
                found.append(_violation("4", tmap, (i, j, k, l, m), four + six))
                if fail_fast:
                    return tuple(found)
    return tuple(found)


def check_star(
    tmap: TernaryMap, *, strict: bool = True, fail_fast: bool = False
) -> tuple[Violation, ...]:
    """Constant 4-subsets that no outside taxon resolves.

    With strict=True a resolver must show the exact pattern of
    quartets.resolved_quartet; with strict=False it only needs to turn the
    surrounding 5-subset into a 4-6 partition.  On maps that pass the
    4-subset check the two readings agree.
    """
    found = []
    rows: list[list[int]] = []
    for i, j, k, l, a, b, c, d in tmap._quads():
        if not a == b == c == d:
            continue
        rows = rows or [tmap._row(e) for e in range(len(tmap.taxa))]
        if not _resolved(a, map(_through(tmap.taxa, i, j, k, l), rows), strict):
            found.append(_star(tmap.taxa, (i, j, k, l), tmap._symbols[a]))
            if fail_fast:
                break
    return tuple(found)


def _resolved(a: int, sixes: Iterable[tuple[int, ...]], strict: bool) -> bool:
    """check_star's test: whether the six codes that _through reads from some
    taxon's row resolve a constant 4-subset of code a.  The rows of its own
    four taxa read a and -1 three times each, so they pass neither test."""
    if strict:
        return any(_resolution(a, six) is not None for six in sixes)
    # A 4-6 split: six times one other code, or a twice and another code four times.
    return any(
        (count := six.count(a)) in (0, 2) and len(set(six)) == 1 + count // 2 for six in sixes
    )


@dataclass(frozen=True)
class MetricReport:
    """Result of verify_metric; the resolver check never affects is_metric."""

    violations: tuple[Violation, ...]
    star_checked: bool = False
    star_violations: tuple[Violation, ...] = ()

    @property
    def is_metric(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        return "".join(v.line + "\n" for v in self.violations + self.star_violations)


def verify_metric(
    tmap: TernaryMap,
    *,
    include_star: bool = False,
    strict_star: bool = True,
    fail_fast: bool = False,
) -> MetricReport:
    """Run the 4- and 5-subset checks, and optionally the resolver check;
    a certified tree answers all three.  Without one, the subsets through the
    mismatches with a nearby encoding answer them, or the full scans do."""
    tree, built = _certify(tmap)
    if tree is not None:
        star = _unresolved_stars(tree, fail_fast) if include_star else ()
        return MetricReport((), include_star, star)
    near = _near_encoding(tmap, built)
    violations = _subset_lines(tmap, near, (4, 5), fail_fast)
    star = _star_lines(tmap, near, strict_star, fail_fast) if include_star else ()
    return MetricReport(violations, include_star, star)


def _near_encoding(tmap: TernaryMap, first: tuple) -> tuple[tuple, list[tuple[int, ...]]] | None:
    """Of the trees _top_down builds from a few roots, one of which avoids any
    single changed triple, the one whose encoding differs from tmap on the
    fewest 3-subsets, as _top_down's (edges, colors, encoding), and those
    3-subsets; None where the full scans cost less.  Root 0's is first,
    already built by _certify."""
    n, near = len(tmap.taxa), None
    # Ten codes for each 5-subset through a mismatch, against C(n, 5) in the full scan.
    cap = comb(n, 5) // max(1, 10 * comb(n - 3, 2))
    for root in dict.fromkeys((0, n // 3, 2 * n // 3, n - 1)) if cap else ():
        built = _top_down(tmap, root) if root else first
        differ = tmap._mismatches(built[2])
        if near is None or len(differ) < len(near[1]):
            near = built, differ
        if len(differ) == 1:
            break
    return near if near and len(near[1]) <= cap else None


def _holding(differ: list, n: int, size: int, shared: int) -> Iterator[tuple[int, ...]]:
    """The sets of size positions that share at least `shared` positions with
    some triple in differ, in combinations order: adding a fixed set to
    subsets of the others keeps their order, so the streams merge."""

    def around(kept: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        rest = [x for x in range(n) if x not in kept]
        return (tuple(sorted(kept + more)) for more in combinations(rest, size - shared))

    kept = {kept for tri in differ for kept in combinations(tri, shared)}
    return (at for at, _ in groupby(merge(*map(around, kept))))


def _subset_lines(
    tmap: TernaryMap, near: tuple | None, sizes: tuple[int, ...], fail_fast: bool = False
) -> tuple[Violation, ...]:
    """check_condition3's lines, then check_condition4's if 5 is in sizes: by the
    full scans without a near encoding, else from the subsets through its
    mismatches, since an encoding passes both checks."""
    if near is None:
        found = check_condition3(tmap, fail_fast=fail_fast)
        if 5 in sizes and not (fail_fast and found):
            found += check_condition4(tmap, fail_fast=fail_fast)
        return found

    def bad(codes: list[int]) -> bool:  # neither constant nor 2-2, or 5-5
        tally = sorted(Counter(codes).values())
        return tally == [5, 5] if len(codes) == 10 else tally not in ([4], [2, 2])

    subsets = (at for size in sizes for at in _holding(near[1], len(tmap.taxa), size, 3))
    tallied = ((at, [tmap._code(*tri) for tri in combinations(at, 3)]) for at in subsets)
    lines = (_violation(str(len(at) - 1), tmap, at, codes) for at, codes in tallied if bad(codes))
    return tuple(islice(lines, 1 if fail_fast else None))  # COND 3, then COND 4


def _star_lines(
    tmap: TernaryMap, near: tuple | None, strict: bool, fail_fast: bool
) -> tuple[Violation, ...]:
    """check_star's lines: by the full scan without a near encoding.  With one, a
    4-subset sharing at most one taxon with each mismatch reads the encoding's
    values inside it and through every outside taxon, so its verdict is the
    encoding's, read off the encoding's tree; the others are scanned.  A
    discriminating tree is the only one with its encoding, so the tree built
    is read when it is discriminating and the encoding certified otherwise."""
    if near is None:
        return check_star(tmap, strict=strict, fail_fast=fail_fast)
    ((edges, colored, encoded), differ), names, rows = near, tmap.taxa.names, []
    pairs = {(names[p], names[q]) for tri in differ for p, q in combinations(tri, 2)}
    tree = ColoredTree(edges, dict(enumerate(names)), colored)
    stars = _unresolved_stars(tree if tree.is_discriminating() else certified_tree(encoded), False)
    found = [v for v in stars if pairs.isdisjoint(combinations(v.subset, 2))]
    for at in _holding(differ, len(names), 4, 2):
        a, b, c, d = (tmap._code(*tri) for tri in combinations(at, 3))
        if a == b == c == d:
            rows = rows or [tmap._row(e) for e in range(len(names))]
            if not _resolved(a, map(_through(tmap.taxa, *at), rows), strict):
                found.append(_star(tmap.taxa, at, tmap._symbols[a]))
    found.sort(key=lambda v: v.subset)  # names sort as their positions do
    return tuple(found[: 1 if fail_fast else None])


def _unresolved_stars(tree: ColoredTree, fail_fast: bool) -> tuple[Violation, ...]:
    """check_star's lines for the tree's encoding, under either reading: the
    4-subsets with their leaves in four branches of one vertex, which is the
    median of all their triples, in combinations order."""
    if tree.is_binary():  # no vertex has four branches
        return ()
    if fail_fast:  # the least, over the vertices, of their four smallest branch minima
        firsts = ((*sorted(map(min, ps))[:4], v) for v, ps in tree._branches() if len(ps) > 3)
        found = sorted(firsts)[:1]
    else:
        found = sorted(
            (*sorted(leaves), v)
            for v, ps in tree._branches()
            for four in combinations(ps, 4)
            for leaves in product(*four)
        )
    return tuple(_star(tree.taxa, (i, j, k, l), tree.colors[v]) for i, j, k, l, v in found)


def is_binary_encodable(tmap: TernaryMap) -> bool:
    """True when the map encodes a binary tree, so passes every check; O(n^3)."""
    tree = certified_tree(tmap)
    return tree is not None and tree.is_binary()


class K5Type(Enum):
    """Shape of a 5-taxon map, read off the edge-colored complete graph.

    Each pair of taxa is an edge colored by the value of the complementary
    triple.  The per-color degree sequences pin down one of five shapes;
    anything else contains a 4-subset violation.
    """

    TYPE1 = "two triangles and a 4-cycle"
    TYPE2 = "two 5-cycles"
    TYPE3 = "a 4-cycle and its complement"
    TYPE4 = "a triangle and its complement"
    TYPE5 = "one color everywhere"
    INVALID = "no tree shape"


_K5_PROFILES = {
    ((4, 4, 4, 4, 4),): K5Type.TYPE5,
    ((2, 2, 2, 2, 2), (2, 2, 2, 2, 2)): K5Type.TYPE2,
    ((2, 2, 2, 2, 0), (4, 2, 2, 2, 2)): K5Type.TYPE3,
    ((2, 2, 2, 0, 0), (4, 4, 2, 2, 2)): K5Type.TYPE4,
    ((2, 2, 2, 0, 0), (2, 2, 2, 0, 0), (2, 2, 2, 2, 0)): K5Type.TYPE1,
}


def classify_k5(tmap: TernaryMap, five: Iterable[str]) -> K5Type:
    """Classify the restriction of a map to five taxa by its colored-graph shape."""
    members = tuple(sorted(set(five)))
    if len(members) != 5:
        raise ValueError(f"expected five distinct taxa, got {len(members)}")
    tmap.taxa.require(*members)
    degrees: dict[str, dict[str, int]] = {}
    for u, v in combinations(members, 2):
        tri = tuple(t for t in members if t != u and t != v)
        sym = tmap.triple_value(tri)
        per_vertex = degrees.setdefault(sym, dict.fromkeys(members, 0))
        per_vertex[u] += 1
        per_vertex[v] += 1
    profile = tuple(
        sorted(tuple(sorted(d.values(), reverse=True)) for d in degrees.values())
    )
    return _K5_PROFILES.get(profile, K5Type.INVALID)
