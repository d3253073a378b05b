"""Frozen reference copies of the explain scans, for the tests only.

These are the name-based bodies of the subset scans, the resolver test, the
quartet scan, the merge relation and the bottom-up contraction loop as they
read before the package moved them onto integer positions over the flat code
store.  They look every value up through ``TernaryMap.triple_value`` and
count with ``Counter``, so they share no logic with the position loops they
check.  ``helpers.scan_report``, ``helpers.metric_by_scans``, the CLI
reference in ``test_cli.py`` and ``test_explain_scans.py`` read them; nothing
in ``src/`` does.
"""

from collections import Counter
from itertools import combinations, count

from tritree import (
    ColoredTree,
    ContractionStep,
    EquivalenceClasses,
    NotAMetricError,
    PartitionProfile,
    Quartet,
    QuartetSystem,
    TaxonSet,
    Violation,
    build_ternary,
    pairings,
)
from tritree.core import check_identifier


def partition_profile(tmap, subset):
    members = tuple(sorted(set(subset)))
    if len(members) < 3:
        raise ValueError(f"a partition profile needs at least three taxa, got {len(members)}")
    tmap.taxa.require(*members)
    tally = Counter(map(tmap.triple_value, combinations(members, 3)))
    return PartitionProfile(members, tuple(sorted(tally.items())))


def check_condition3(tmap, *, fail_fast=False):
    found = []
    for quad in tmap.taxa.subsets(4):
        profile = partition_profile(tmap, quad)
        if len(profile.counts) == 1 or profile.is_partitioned(2, 2):
            continue
        found.append(Violation("3", quad, "values " + profile.describe()))
        if fail_fast:
            break
    return tuple(found)


def check_condition4(tmap, *, fail_fast=False):
    found = []
    for five in tmap.taxa.subsets(5):
        profile = partition_profile(tmap, five)
        if profile.is_partitioned(5, 5):
            found.append(Violation("4", five, "values " + profile.describe()))
            if fail_fast:
                break
    return tuple(found)


def check_star(tmap, *, strict=True, fail_fast=False):
    found = []
    names = tmap.taxa.names
    for quad in tmap.taxa.subsets(4):
        inner = {tmap.triple_value(tri) for tri in combinations(quad, 3)}
        if len(inner) != 1:
            continue
        (value,) = inner
        outside = [e for e in names if e not in quad]
        if strict:
            resolved = any(resolved_quartet(tmap, quad, e) is not None for e in outside)
        else:
            resolved = any(
                partition_profile(tmap, quad + (e,)).is_partitioned(4, 6) for e in outside
            )
        if resolved:
            continue
        if outside:
            detail = f"constant value {value} with no resolving taxon"
        else:
            detail = f"constant value {value} and no taxa outside the 4-subset"
        found.append(Violation("*", quad, detail))
        if fail_fast:
            break
    return tuple(found)


def _inner_values(tmap, quad):
    return {tri: tmap.triple_value(tri) for tri in combinations(sorted(quad), 3)}


def resolved_quartet(tmap, quad, e):
    quad = tuple(sorted(set(quad)))
    if len(quad) != 4:
        raise ValueError(f"expected four distinct taxa, got {quad!r}")
    tmap.taxa.require(e)
    if e in quad:
        raise ValueError(f"resolver {e!r} must lie outside the 4-subset")
    inner = set(_inner_values(tmap, quad).values())
    if len(inner) != 1:
        raise ValueError(
            f"4-subset {' '.join(quad)} is not constant: values {sorted(inner)}"
        )
    (m,) = inner
    for (p1, p2), (q1, q2) in pairings(*quad):
        if tmap.triple_value((p1, p2, e)) != m:
            continue
        if tmap.triple_value((q1, q2, e)) != m:
            continue
        cross = {
            tmap.triple_value((p, q, e))
            for p in (p1, p2)
            for q in (q1, q2)
        }
        if len(cross) == 1 and m not in cross:
            return Quartet((p1, p2), (q1, q2))
    return None


def scan_quartets(tmap):
    found = set()
    names = tmap.taxa.names
    for quad in combinations(names, 4):
        inner = _inner_values(tmap, quad)
        by_value = {}
        for tri, val in inner.items():
            by_value.setdefault(val, []).append(tri)
        if len(by_value) == 2:
            groups = list(by_value.values())
            if len(groups[0]) != 2:
                continue
            quad_set = set(quad)
            omitted = [(quad_set - set(tri)).pop() for tri in groups[0]]
            pair = tuple(sorted(omitted))
            other = tuple(sorted(quad_set - set(pair)))
            found.add(Quartet(pair, other))
        elif len(by_value) == 1:
            outside = [t for t in names if t not in quad]
            seen = set()
            for e in outside:
                q = resolved_quartet(tmap, quad, e)
                if q is not None:
                    seen.add(q)
                    if len(seen) == 3:
                        break
            found.update(seen)
    return QuartetSystem(tmap.taxa, found)


def merge_symbol(tmap, x, y):
    tmap.taxa.require(x, y)
    if x == y:
        raise ValueError("merging is defined for two distinct taxa")
    others = [t for t in tmap.taxa if t != x and t != y]
    candidates = sorted({tmap.triple_value((x, y, z)) for z in others})
    other_pairs = list(combinations(others, 2))
    passing = [
        m
        for m in candidates
        if all(
            (tmap.triple_value((x, u, v)) == m) == (tmap.triple_value((y, u, v)) == m)
            for u, v in other_pairs
        )
    ]
    if len(passing) > 1:
        raise NotAMetricError(
            f"taxa {x} and {y} merge under more than one symbol: {' '.join(passing)}"
        )
    return passing[0] if passing else None


def equivalence_classes(tmap):
    names = tmap.taxa.names
    pair_symbol = {}
    adjacent = {x: set() for x in names}
    for x, y in combinations(names, 2):
        symbol = merge_symbol(tmap, x, y)
        if symbol is not None:
            pair_symbol[(x, y)] = symbol
            adjacent[x].add(y)
            adjacent[y].add(x)

    classes = []
    symbols = []
    placed = set()
    for start in names:
        if start in placed:
            continue
        group = {start}
        frontier = [start]
        while frontier:
            frontier = [u for v in frontier for u in adjacent[v] if u not in group]
            group.update(frontier)
        placed.update(group)
        members = tuple(sorted(group))
        if len(members) == 1:
            classes.append(members)
            symbols.append(None)
            continue
        seen = {}
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
        symbols.append(next(iter(seen)))
    return EquivalenceClasses(tuple(classes), tuple(symbols))


def contract_class(tmap, members, symbol, new_name):
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
    values = {tri: tmap.triple_value(tri) for tri in combinations(rest, 3)}
    for u, v in combinations(rest, 2):
        through = {tmap.triple_value((x, u, v)) for x in group}
        if len(through) > 1:
            raise NotAMetricError(
                f"class members disagree on the pair {u} {v}: values {' '.join(sorted(through))}"
            )
        values[(new_name, u, v)] = through.pop()
    reduced = build_ternary(TaxonSet(tuple(rest) + (new_name,)), tmap.alphabet, values)
    return ContractionStep(group, symbol, new_name, reduced)


def grow(tmap, on_step=None):
    names, reduced = tmap.taxa.names, tmap
    vertex_of = {name: i for i, name in enumerate(names)}
    fresh = (f"@{k}" for k in count(1) if f"@{k}" not in tmap.taxa)
    edges = []
    colors = {}
    while True:
        mergeable = equivalence_classes(reduced).nontrivial()
        if not mergeable:
            raise NotAMetricError("no pair of taxa merges, so the map encodes no tree")
        members, symbol = min(mergeable)
        hub = len(names) + len(colors)
        colors[hub] = symbol
        if len(members) >= len(reduced.taxa) - 1:
            edges.extend((vertex_of[t], hub) for t in reduced.taxa.names)
            break
        contraction = contract_class(reduced, members, symbol, next(fresh))
        if on_step is not None:
            on_step(contraction)
        edges.extend((vertex_of[t], hub) for t in members)
        vertex_of[contraction.new_taxon] = hub
        reduced = contraction.reduced
    encoded = ColoredTree(edges, dict(enumerate(names)), colors).encode()
    if encoded != tmap:
        pairs = zip(encoded.entries(), tmap.entries())
        tri, got, want = next((t, g, w) for (t, g), (_, w) in pairs if g != w)
        raise NotAMetricError(
            f"no tree encodes this map: the candidate tree gives {got} on "
            f"{' '.join(tri)} where the map gives {want}"
        )
