"""Quartets and the quartet system induced by a ternary map.

A quartet is an unordered split of four taxa into two pairs, written
``a b | c d``.  A ternary map induces quartets two ways:

* a 4-subset whose four inner values split 2-2 yields the quartet whose
  first pair is the two taxa omitted by the equal-valued triples;
* a 4-subset whose four inner values agree (value ``m``) yields a quartet
  for every outside taxon ``e`` that resolves one of its three pairings:
  both within-pair triples through ``e`` keep the value ``m`` while all
  four cross-pair triples through ``e`` share a single other value.

On a map that encodes a tree these are the tree's displayed quartets, listed
from the certified tree; the scan over 4-subsets and resolvers runs on other
maps and is the reference.  Both routes give each quartet as sorted taxon
positions; QuartetSystem._of names them, and _text_chunks writes the text of
`tritree quartets` from them in chunks, with no Quartet per line.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb
from operator import itemgetter
from typing import Iterable, Iterator

from .core import TaxonSet, TernaryMap

__all__ = [
    "Quartet",
    "QuartetSystem",
    "generate_quartets",
    "is_complete",
    "is_saturated",
    "is_thin",
    "is_transitive",
    "non_thin_quadruples",
    "pairings",
    "resolved_quartet",
]


@dataclass(frozen=True)
class Quartet:
    """Two disjoint pairs of taxa, stored in a canonical order."""

    first: tuple[str, str]
    second: tuple[str, str]

    def __post_init__(self) -> None:
        a = tuple(sorted(self.first))
        b = tuple(sorted(self.second))
        if a > b:
            a, b = b, a
        if (len(a), len(b), len({*a, *b})) != (2, 2, 4):
            raise ValueError(f"a quartet needs four distinct taxa in two pairs, got {a} | {b}")
        object.__setattr__(self, "first", a)
        object.__setattr__(self, "second", b)

    @classmethod
    def of(cls, a: str, b: str, c: str, d: str) -> "Quartet":
        """The quartet pairing a with b against c with d."""
        return cls((a, b), (c, d))

    @property
    def support(self) -> frozenset[str]:
        return frozenset(self.first + self.second)

    def __str__(self) -> str:
        return f"{self.first[0]} {self.first[1]} | {self.second[0]} {self.second[1]}"


def pairings(
    a: str, b: str, c: str, d: str
) -> tuple[tuple[tuple[str, str], tuple[str, str]], ...]:
    """The three ways to split four taxa into two pairs."""
    return (
        ((a, b), (c, d)),
        ((a, c), (b, d)),
        ((a, d), (b, c)),
    )


class QuartetSystem:
    """A set of quartets over a fixed taxon set."""

    __slots__ = ("taxa", "members")

    def __init__(self, taxa: TaxonSet, members: Iterable[Quartet]) -> None:
        self.taxa, members = taxa, list(members)
        for q in members:  # in input order, so the first unknown taxon named is the same every run
            taxa.require(*q.first, *q.second)
        self.members = frozenset(members)

    @classmethod
    def _of(cls, taxa: TaxonSet, positions: Iterable[tuple[int, ...]]) -> "QuartetSystem":
        """The quartets a b | c d at taxon positions (a, b, c, d), with no taxon check."""
        system, names = cls(taxa, ()), taxa.names
        system.members = frozenset(Quartet.of(*map(names.__getitem__, p)) for p in positions)
        return system

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, quartet: object) -> bool:
        return quartet in self.members

    def __iter__(self) -> Iterator[Quartet]:
        return iter(sorted(self.members, key=lambda q: (q.first, q.second)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuartetSystem):
            return NotImplemented
        return self.taxa.names == other.taxa.names and self.members == other.members

    def __hash__(self) -> int:
        return hash((self.taxa.names, self.members))

    def __repr__(self) -> str:
        return f"QuartetSystem(n={len(self.taxa)}, quartets={len(self.members)})"

    def on_support(self, quad: Iterable[str]) -> tuple[Quartet, ...]:
        """The quartets whose four taxa are exactly the given 4-subset."""
        wanted = frozenset(quad)
        return tuple(q for q in self if q.support == wanted)

    def to_text(self) -> str:
        return "".join(f"{q}\n" for q in self)


def _through(taxa: TaxonSet, i: int, j: int, k: int, l: int) -> itemgetter:
    """Reads the codes with pairs ij, kl, ik, jl, il and jk from a taxon's row."""
    pair = taxa._pair
    return itemgetter(pair(i, j), pair(k, l), pair(i, k), pair(j, l), pair(i, l), pair(j, k))


def _resolution(m: int, six: tuple[int, ...]) -> int | None:
    """The index in pairings() of the pairing whose own two pairs keep the code
    m of a constant 4-subset and whose four cross pairs share one other code,
    in the codes six that _through reads from an outside taxon's row; or None."""
    if six.count(m) == 2:
        for p in (0, 2, 4):
            if six[p] == six[p + 1] == m:
                cross = six[:p] + six[p + 2 :]
                return p // 2 if cross.count(cross[0]) == 4 else None
    return None


def resolved_quartet(
    tmap: TernaryMap, quad: Iterable[str], e: str
) -> Quartet | None:
    """The quartet on a constant 4-subset that the outside taxon e resolves.

    Returns None when e resolves no pairing.  Raises ValueError when the
    four triples inside the 4-subset do not share one value, or when e
    lies inside the 4-subset.
    """
    quad = tuple(sorted(set(quad)))
    if len(quad) != 4:
        raise ValueError(f"expected four distinct taxa, got {quad!r}")
    tmap.taxa.require(*quad, e)
    if e in quad:
        raise ValueError(f"resolver {e!r} must lie outside the 4-subset")
    inner = {tmap.triple_value(tri) for tri in combinations(quad, 3)}
    if len(inner) != 1:
        raise ValueError(f"4-subset {' '.join(quad)} is not constant: values {sorted(inner)}")
    index = tmap.taxa._index
    six = _through(tmap.taxa, *(index[t] for t in quad))(tmap._row(index[e]))
    p = _resolution(tmap._symbols.index(inner.pop()), six)
    return None if p is None else Quartet(*pairings(*quad)[p])


def generate_quartets(tmap: TernaryMap) -> QuartetSystem:
    """All quartets induced by a ternary map.

    Assumes the map passes the basic checks (symmetry is structural; every
    4-subset carries at most two values, and two only in a 2-2 split).
    4-subsets that violate that assumption induce nothing here.
    """
    from .reconstruct import certified_tree  # reconstruct -> tree -> quartets

    tree = certified_tree(tmap)
    positions = _scan_quartets(tmap) if tree is None else tree._quartet_positions()
    return QuartetSystem._of(tmap.taxa, positions)


def _scan_quartets(tmap: TernaryMap) -> Iterator[tuple[int, ...]]:
    """generate_quartets by the 4-subset and resolver scan, on any map, as the
    positions (i, j, k, l), (i, k, j, l) or (i, l, j, k) of a 4-subset i < j < k < l."""
    rows = [tmap._row(e) for e in range(len(tmap.taxa))]
    for i, j, k, l, a, b, c, d in tmap._quads():
        quads = (i, j, k, l), (i, k, j, l), (i, l, j, k)  # in the order of pairings()
        if a == b == c == d:
            # The rows of i, j, k and l resolve nothing (see check_star).
            sixes = map(_through(tmap.taxa, i, j, k, l), rows)
            yield from (quads[p] for p in {_resolution(a, six) for six in sixes} - {None})
        elif a == b and c == d or a == c and b == d or a == d and b == c:
            # The 2-2 split pairs the two taxa omitted by the triples sharing a's value.
            yield quads[0 if a == b else 1 if a == c else 2]


def _text_chunks(names: tuple[str, ...], positions: Iterable[tuple[int, ...]]) -> Iterator[str]:
    """QuartetSystem.to_text for positions (a, b, c, d), a the smallest, a < b and c < d,
    one chunk per a: a's bucket holds each quartet as the integer (b n + c) n + d, so
    sorted it is in text order, and the text of only one bucket is held at a time."""
    n, nn = len(names), len(names) ** 2
    buckets = [array("q") for _ in names]
    for a, b, c, d in positions:
        buckets[a].append((b * n + c) * n + d)
    pairs = [f"{x} {y}\n" for x in names for y in names]
    for a, bucket in enumerate(buckets):
        buckets[a], heads = None, [f"{pairs[a * n + b][:-1]} | " for b in range(n)]
        yield "".join([heads[k // nn] + pairs[k % nn] for k in sorted(bucket)])


def non_thin_quadruples(system: QuartetSystem) -> tuple[tuple[str, ...], ...]:
    """4-subsets carrying two or more quartets of the system."""
    per_quad = Counter(q.support for q in system.members)
    return tuple(sorted(tuple(sorted(quad)) for quad, count in per_quad.items() if count >= 2))


def is_thin(system: QuartetSystem) -> bool:
    """True when no 4-subset carries more than one quartet."""
    return not non_thin_quadruples(system)


def is_complete(system: QuartetSystem) -> bool:
    """True when every 4-subset carries exactly one quartet."""
    per_quad = Counter(q.support for q in system.members)
    return len(per_quad) == comb(len(system.taxa), 4) and all(c == 1 for c in per_quad.values())


def is_transitive(system: QuartetSystem) -> bool:
    """True when, for each pair, being paired against it is transitive.

    Whenever a b | c e and a b | d e are members with c, d, e distinct,
    a b | c d must be a member too.
    """
    partners: dict[tuple[str, str], dict[str, set[str]]] = {}
    for q in system.members:
        for pair, (u, v) in ((q.first, q.second), (q.second, q.first)):
            adj = partners.setdefault(pair, {})
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
    for pair, adj in partners.items():
        for e, neigh in adj.items():
            for c, d in combinations(sorted(neigh), 2):
                if d not in adj.get(c, ()):
                    return False
    return True


def is_saturated(system: QuartetSystem) -> bool:
    """True when every member quartet extends past every fifth taxon.

    For a member with pairs {p1, p2} and {q1, q2} and any other taxon e,
    each of the four choices (i, j) must satisfy: p_i e | q1 q2 is a
    member, or p1 p2 | q_j e is a member.
    """
    members = system.members
    for q in members:
        p1, p2 = q.first
        q1, q2 = q.second
        for e in system.taxa:
            if e in q.support:
                continue
            for pi in (p1, p2):
                for qj in (q1, q2):
                    if Quartet((pi, e), (q1, q2)) in members:
                        continue
                    if Quartet((p1, p2), (qj, e)) in members:
                        continue
                    return False
    return True
