"""Fixture builders and the exhaustive small-tree corpus shared by the tests.

The corpus takes every topology on 4, 5, and 6 leaves and colors it in all
discriminating ways with up to three symbols.  Topologies whose coloring
count exceeds the cap are thinned by a fixed stride, so the selection is
deterministic.  At these sizes the cap never actually binds.
"""

import os
import random
import subprocess
import sys
from functools import lru_cache
from itertools import product
from pathlib import Path

from tritree import (
    ColoredTree,
    MetricReport,
    SymbolAlphabet,
    TaxonSet,
    TernaryMap,
    enumerate_colorings,
    enumerate_trees,
)
from tritree.oracle import two_cycle_map  # noqa: F401  (re-exported for the fixtures)
from tritree.quartets import QuartetSystem, _scan_quartets

import reference_scans

PALETTE = ("a", "b", "c")
CAP_PER_TOPOLOGY = 500
ROOT = Path(__file__).resolve().parent.parent


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run this interpreter with src/ on PYTHONPATH, so a checkout needs no
    installed package, and capture its text output."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )


@lru_cache(maxsize=None)
def colored_trees(n: int, symbols: tuple[str, ...] = PALETTE) -> tuple[ColoredTree, ...]:
    out = []
    for topology in enumerate_trees(n).topologies:
        colorings = list(enumerate_colorings(topology, symbols))
        if len(colorings) > CAP_PER_TOPOLOGY:
            stride = -(-len(colorings) // CAP_PER_TOPOLOGY)
            colorings = colorings[::stride][:CAP_PER_TOPOLOGY]
        out.extend(topology.with_colors(coloring) for coloring in colorings)
    return tuple(out)


@lru_cache(maxsize=None)
def encoded_corpus(n: int, symbols: tuple[str, ...] = PALETTE):
    """Pairs (tree, encoding) for the whole corpus at one size."""
    return tuple((tree, tree.encode()) for tree in colored_trees(n, symbols))


def star_tree(n: int = 5, color: str = "a") -> ColoredTree:
    """One hub of the given color carrying taxa t1..tn."""
    hub = n
    edges = [(i, hub) for i in range(n)]
    return ColoredTree(edges, {i: f"t{i + 1}" for i in range(n)}, {hub: color})


def caterpillar5(colors: tuple[str, str, str] = ("a", "b", "c")) -> ColoredTree:
    """Binary tree on t1..t5 with a path of three interior vertices.

    t1 and t2 hang off the first interior vertex, t3 off the second, t4 and
    t5 off the third.
    """
    edges = [(0, 5), (1, 5), (5, 6), (2, 6), (6, 7), (3, 7), (4, 7)]
    leaves = {0: "t1", 1: "t2", 2: "t3", 3: "t4", 4: "t5"}
    return ColoredTree(edges, leaves, dict(zip((5, 6, 7), colors)))


def cherry5() -> ColoredTree:
    """t1 and t2 on an 'a' vertex joined to a 'b' vertex carrying t3, t4, t5."""
    edges = [(0, 5), (1, 5), (5, 6), (2, 6), (3, 6), (4, 6)]
    leaves = {0: "t1", 1: "t2", 2: "t3", 3: "t4", 4: "t5"}
    return ColoredTree(edges, leaves, {5: "a", 6: "b"})


def random_tree(rng, n: int, symbols: tuple[str, ...] = PALETTE) -> ColoredTree:
    """A seeded random discriminating tree on t1..tn.

    Each new leaf joins an interior vertex (about three times in ten) or a
    fresh vertex splitting an edge; colors are drawn top-down, each avoiding
    its parent's.
    """
    hub = n
    edges = [(0, hub), (1, hub), (2, hub)]
    interior = [hub]
    for leaf in range(3, n):
        if rng.random() < 0.3:
            edges.append((leaf, rng.choice(interior)))
        else:
            u, v = edges.pop(rng.randrange(len(edges)))
            fresh = n + len(interior)
            interior.append(fresh)
            edges += [(u, fresh), (v, fresh), (leaf, fresh)]
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    colors = {hub: rng.choice(symbols)}
    order = [hub]
    for v in order:
        for u in adj[v]:
            if u >= n and u not in colors:
                colors[u] = rng.choice([s for s in symbols if s != colors[v]])
                order.append(u)
    return ColoredTree(edges, {i: f"t{i + 1}" for i in range(n)}, colors)


def forced_polytomy(rng, degree: int, n: int) -> ColoredTree:
    """A tree on t1..tn, names shuffled over the leaves, with a hub of exactly
    the given degree: every later leaf splits an edge, or (three times in ten)
    joins another interior vertex, which may then be a polytomy too."""
    edges = [(leaf, n) for leaf in range(degree)]
    interior = [n]
    for leaf in range(degree, n):
        if len(interior) > 1 and rng.random() < 0.3:
            edges.append((leaf, rng.choice(interior[1:])))
        else:
            u, v = edges.pop(rng.randrange(len(edges)))
            interior.append(n + len(interior))
            edges += [(u, interior[-1]), (v, interior[-1]), (leaf, interior[-1])]
    names = rng.sample([f"t{i + 1}" for i in range(n)], n)
    colors = {v: rng.choice(PALETTE) for v in interior}
    return ColoredTree(edges, dict(enumerate(names)), colors)


def caterpillar(n: int, symbols: tuple[str, str] = ("a", "b")) -> ColoredTree:
    """Binary tree on t1..tn whose interior vertices form a path, colored in
    turn: t1 and t2 hang off the first, t3 .. t(n-2) one each, the last two
    off the last.  Sorted names (t1, t10, t11, ...) do not follow the path."""
    path = [n + i for i in range(n - 2)]
    edges = list(zip(path, path[1:])) + [(0, path[0]), (n - 1, path[-1])]
    edges += [(leaf, path[max(leaf - 1, 0)]) for leaf in range(1, n - 1)]
    colors = {v: symbols[i % 2] for i, v in enumerate(path)}
    return ColoredTree(edges, {i: f"t{i + 1}" for i in range(n)}, colors)


def perturbed(rng, tmap: TernaryMap, flips: int, symbols: tuple[str, ...] = PALETTE) -> TernaryMap:
    """The map with `flips` random triples changed to another symbol."""
    values = dict(tmap.entries())
    for tri in rng.sample(list(values), flips):
        values[tri] = rng.choice([s for s in symbols if s != values[tri]])
    return TernaryMap(tmap.taxa, SymbolAlphabet(frozenset(symbols)), values)


def random_encodings_and_perturbations(seed: int, count: int, max_n: int = 14):
    """Encodings of seeded random trees on 4..max_n taxa over four colors,
    each followed by copies with one and with two triples flipped."""
    rng = random.Random(seed)
    symbols = PALETTE + ("d",)
    for _ in range(count):
        tmap = random_tree(rng, rng.randint(4, max_n), symbols).encode()
        yield tmap
        yield perturbed(rng, tmap, 1, symbols)
        yield perturbed(rng, tmap, 2, symbols)


def all_maps(n: int, symbols):
    """Every map on t1..tn over the symbols: one per tuple of values for the
    3-subsets in combinations order, in product order."""
    taxa = TaxonSet(tuple(f"t{i + 1}" for i in range(n)))
    alphabet = SymbolAlphabet(frozenset(symbols))
    triples = tuple(taxa.triples())
    for values in product(symbols, repeat=len(triples)):
        yield TernaryMap(taxa, alphabet, dict(zip(triples, values)))


def scanned_quartets(tmap: TernaryMap) -> QuartetSystem:
    """generate_quartets by the package's 4-subset and resolver scan alone."""
    return QuartetSystem._of(tmap.taxa, _scan_quartets(tmap))


def metric_by_scans(tmap: TernaryMap) -> bool:
    """The 4- and 5-subset checks by their reference scans."""
    return not reference_scans.check_condition3(tmap) and not reference_scans.check_condition4(tmap)


def scan_report(
    tmap: TernaryMap,
    *,
    include_star: bool = False,
    strict_star: bool = True,
    fail_fast: bool = False,
    scans=reference_scans,
) -> MetricReport:
    """verify_metric's report built from the scans alone: by default the
    frozen reference copies, or the check_* functions of another module."""
    violations = scans.check_condition3(tmap, fail_fast=fail_fast)
    if not (fail_fast and violations):
        violations += scans.check_condition4(tmap, fail_fast=fail_fast)
    star = scans.check_star(tmap, strict=strict_star, fail_fast=fail_fast) if include_star else ()
    return MetricReport(violations, include_star, star)


# Every distinct verify_metric option set: strict_star matters only with include_star.
VERIFY_OPTIONS = (
    {"include_star": False, "strict_star": True, "fail_fast": False},
    {"include_star": False, "strict_star": True, "fail_fast": True},
    {"include_star": True, "strict_star": True, "fail_fast": False},
    {"include_star": True, "strict_star": False, "fail_fast": False},
    {"include_star": True, "strict_star": True, "fail_fast": True},
    {"include_star": True, "strict_star": False, "fail_fast": True},
)
