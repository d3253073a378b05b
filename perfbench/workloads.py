"""The four workloads: their input files, job lists and expected outputs.

A unit is one input (a tree with its table, or one census map) and the
commands run on it.  Units come in an endless seeded stream of blocks of
identical make-up, so a run that stops after any whole block has done the
same mix of sizes and shapes whatever its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, count
from pathlib import Path
from typing import Iterator

import gen

# Shapes per block: (generator, taxa, colors).  Each block repeats these with
# fresh seeded trees.
_SMALL_BLOCK = (
    ("random", 12, 2),
    ("random", 16, 3),
    ("random", 18, 5),
    ("caterpillar", 22, 2),
)
_LARGE_BLOCK = (
    ("caterpillar", 40, 3),
    ("balanced", 44, 3),
)
_ALL = ("encode", "verify", "check-binary", "reconstruct", "quartets")
_CENSUS_TAXA = ("t1", "t2", "t3", "t4", "t5")
# Maps per census block, by declared symbols.  64 blocks, about a 20-second
# run, hold each of the 1024 two-symbol maps once.
_CENSUS_BLOCK = ((("a", "b"), 16), (("a", "b", "c"), 24))

# name: (shapes per block, or None for census; commands; nominal seconds per
# block on the reference host; blocks in a traced run).  A 20-second run is
# about 4, 6, 64 and 5 blocks.  On accept and reject that is enough n=22
# caterpillar jobs (whose colors alternate, so their cost hardly depends on
# the seed) for the 11th-slowest job, job_tail_s, to be one of them.
WORKLOADS = {
    "accept": (_SMALL_BLOCK, _ALL, 5.0, 1),
    "reject": (_SMALL_BLOCK, _ALL[1:], 20 / 6, 1),
    "census": (None, ("verify", "check-binary", "reconstruct"), 20 / 64, 16),
    "large": (_LARGE_BLOCK, ("encode", "reconstruct"), 4.0, 1),
}

# stderr that must be exactly one line starting with "error: ".
ERROR_LINE = object()

Block = tuple[list["Unit"], dict[str, str]]


@dataclass(frozen=True)
class Unit:
    n: int
    commands: tuple[str, ...]
    newick: str | None
    table: str
    tree: gen.Tree | None = None
    flip: tuple[tuple[str, str, str], str] | None = None
    values: tuple[str, ...] | None = None

    def argv(self, command: str) -> list[str]:
        return [command, self.newick if command == "encode" else self.table]


def _make_tree(rng: random.Random, shape: str, n: int, k: int) -> gen.Tree:
    if shape == "random":
        return gen.random_tree(rng, n, k)
    if shape == "caterpillar":
        return gen.caterpillar(rng, n, k)
    return gen.balanced(rng, n, k)


def block_count(name: str, seconds: float, traced: bool) -> int:
    """Blocks a run makes in set-up: a fixed few when traced, else those the
    reference host runs in --seconds."""
    _, _, block_seconds, traced_blocks = WORKLOADS[name]
    return traced_blocks if traced else max(1, round(seconds / block_seconds))


def _tree_unit(
    tree: gen.Tree, commands: tuple[str, ...], path: Path, rng: random.Random | None = None
) -> Block:
    """A tree's unit and input files; with rng, one triple of its table is
    flipped to another declared symbol."""
    taxa, symbols, values = tree.table()
    flip = None
    if rng is not None:
        triple = rng.choice(list(values))
        symbol = rng.choice([s for s in symbols if s != values[triple]])
        flip = (triple, symbol)
        values[triple] = symbol
    newick, table = f"{path}.nwk", f"{path}.tab"
    files = {newick: tree.newick(), table: gen.table_text(taxa, symbols, values)}
    return [Unit(tree.n, commands, newick, table, tree, flip)], files


def blocks(name: str, seed: int, work: Path) -> Iterator[Block]:
    """The workload's endless stream of blocks: units and the text of each
    input file they name.  The same seed gives the same stream."""
    shapes, commands, _, _ = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    if shapes is None:
        yield from _census(rng, work, commands)
        return
    for b in count():
        units, files = [], {}
        for i, (shape, n, k) in enumerate(shapes):
            tree = _make_tree(rng, shape, n, k)
            more, text = _tree_unit(
                tree, commands, work / f"tree{b}-{i}", rng if name == "reject" else None
            )
            units += more
            files.update(text)
        yield units, files


def probe(work: Path) -> Block:
    """One small fixed tree through all five commands.

    A traced run ends with it, so that every span is entered on every
    workload and no per-layer time reads exactly zero run after run.
    """
    return _tree_unit(gen.random_tree(random.Random("probe"), 9, 3), _ALL, work / "probe")


def _fresh(rng: random.Random, size: int, seen: set[int]) -> int:
    """A random index below size not drawn before, starting over once all have been."""
    if len(seen) == size:
        seen.clear()
    while (i := rng.randrange(size)) in seen:
        pass
    seen.add(i)
    return i


def _census(rng: random.Random, work: Path, commands: tuple[str, ...]) -> Iterator[Block]:
    """Blocks of two-symbol maps on five taxa, each drawn once until all 1024
    have been, and three-symbol maps sampled without repeats from the 59 049,
    in random order within each block."""
    triples = list(combinations(_CENSUS_TAXA, 3))
    seen: dict[int, set[int]] = {len(symbols): set() for symbols, _ in _CENSUS_BLOCK}
    for b in count():
        maps = []
        for symbols, many in _CENSUS_BLOCK:
            k = len(symbols)
            for _ in range(many):
                i = _fresh(rng, k**10, seen[k])
                maps.append((symbols, tuple(symbols[i // k**j % k] for j in range(10))))
        rng.shuffle(maps)
        units, files = [], {}
        for i, (symbols, vals) in enumerate(maps):
            table = str(work / f"map{b}-{i}.tab")
            files[table] = gen.table_text(_CENSUS_TAXA, symbols, dict(zip(triples, vals)))
            units.append(Unit(5, commands, None, table, values=vals))
        yield units, files


# -- expected outputs ----------------------------------------------------------


def _profile(values: dict, subset: tuple[str, ...]) -> dict[str, int]:
    tally: dict[str, int] = {}
    for tri in combinations(subset, 3):
        tally[values[tri]] = tally.get(values[tri], 0) + 1
    return tally


def _describe(tally: dict[str, int]) -> str:
    return "values " + " ".join(f"{s}={c}" for s, c in sorted(tally.items()))


def _subset_lines(values: dict, quads, fives) -> str:
    """COND 3 and COND 4 lines, recounted here, for the given subsets."""
    lines = []
    for quad in quads:
        tally = _profile(values, quad)
        if len(tally) > 1 and sorted(tally.values()) != [2, 2]:
            lines.append(f"COND 3 SUBSET {' '.join(quad)} DETAIL {_describe(tally)}\n")
    for five in fives:
        tally = _profile(values, five)
        if sorted(tally.values()) == [5, 5]:
            lines.append(f"COND 4 SUBSET {' '.join(five)} DETAIL {_describe(tally)}\n")
    return "".join(lines)


def _resolved(values: dict, quad: tuple[str, ...], m: str, e: str) -> bool:
    """Whether e resolves one pairing of the constant 4-subset quad (value m)."""

    def val(x: str, y: str) -> str:
        return values[tuple(sorted((x, y, e)))]

    a, b, c, d = quad
    for (p1, p2), (q1, q2) in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
        if val(p1, p2) != m or val(q1, q2) != m:
            continue
        cross = {val(p, q) for p in (p1, p2) for q in (q1, q2)}
        if len(cross) == 1 and m not in cross:
            return True
    return False


def _unresolved(values: dict, taxa: tuple[str, ...], quads) -> list[tuple[tuple[str, ...], str]]:
    """The constant 4-subsets among quads that no outside taxon resolves."""
    found = []
    for quad in quads:
        inner = set(_profile(values, quad))
        if len(inner) != 1:
            continue
        (m,) = inner
        if not any(_resolved(values, quad, m, e) for e in taxa if e not in quad):
            found.append((quad, m))
    return found


def _star_lines(stars) -> str:
    return "".join(
        f"COND * SUBSET {' '.join(quad)} DETAIL constant value {m} with no resolving taxon\n"
        for quad, m in sorted(stars)
    )


def expected(unit: Unit) -> dict[str, tuple[int, str, object]]:
    """Exit code, stdout and stderr each command must produce on this unit."""
    if unit.tree is None:
        return _expected_census(unit)
    tree = unit.tree
    taxa, symbols, values = tree.table()
    if unit.flip is None:
        # Built on demand: the quartet list alone is Θ(n⁴) to make.
        expect = {
            "encode": lambda: (0, gen.table_text(taxa, symbols, values), ""),
            "verify": lambda: (0, "", "metric: yes\n"),
            "check-binary": lambda: (0, "binary: yes\n", "")
            if tree.is_binary()
            else (1, "binary: no\n", _star_lines(tree.stars())),
            "reconstruct": lambda: (0, tree.newick(), ""),
            "quartets": lambda: (0, tree.quartets_text(), ""),
        }
        return {command: expect[command]() for command in unit.commands}
    # One flipped triple can only change the subsets through it.
    triple, symbol = unit.flip
    values[triple] = symbol
    rest = [t for t in taxa if t not in triple]
    quads = sorted(tuple(sorted(triple + (x,))) for x in rest)
    fives = sorted(tuple(sorted(triple + pair)) for pair in combinations(rest, 2))
    cond3 = _subset_lines(values, quads, ())
    broken = cond3.count("\n")
    if broken != len(quads):
        # One flip breaks every 4-subset through the triple, whatever the tree.
        raise ValueError(f"flipping {triple} broke {broken} of its {len(quads)} 4-subsets")
    report = cond3 + _subset_lines(values, (), fives)
    # A constant 4-subset can change its resolvers only if it holds two taxa
    # of the flipped triple; the others keep the tree's verdict.
    touched = [q for q in combinations(taxa, 4) if len(set(q) & set(triple)) == 2]
    stars = [(q, m) for q, m in tree.stars() if len(set(q) & set(triple)) < 2]
    stars += _unresolved(values, taxa, touched)
    return {
        "verify": (1, report, "metric: no\n"),
        "check-binary": (1, "binary: no\n", report + _star_lines(stars)),
        "reconstruct": (1, "", ERROR_LINE),
        "quartets": (
            1,
            "",
            cond3 + "error: the map fails the 4-subset check, so its quartets are undefined\n",
        ),
    }


@lru_cache(maxsize=1)
def _oracle() -> dict[tuple[str, ...], gen.Tree]:
    """Every map on five taxa over a, b, c that some colored tree encodes, with its tree."""
    from tritree.oracle import enumerate_colorings, enumerate_trees

    found = {}
    for topology in enumerate_trees(5, _CENSUS_TAXA).topologies:
        for coloring in enumerate_colorings(topology, ("a", "b", "c")):
            tree = gen.Tree(_CENSUS_TAXA, topology.adjacency(), coloring)
            _, _, values = tree.table()
            found[tuple(values.values())] = tree
    return found


def _expected_census(unit: Unit) -> dict[str, tuple[int, str, object]]:
    tree = _oracle().get(unit.values)
    values = dict(zip(combinations(_CENSUS_TAXA, 3), unit.values))
    report = _subset_lines(values, combinations(_CENSUS_TAXA, 4), (_CENSUS_TAXA,))
    stars = _unresolved(values, _CENSUS_TAXA, combinations(_CENSUS_TAXA, 4))
    binary = tree is not None and tree.is_binary()
    return {
        "verify": (0, "", "metric: yes\n") if tree else (1, report, "metric: no\n"),
        "check-binary": (0, "binary: yes\n", "")
        if binary
        else (1, "binary: no\n", report + _star_lines(stars)),
        "reconstruct": (0, tree.newick(), "") if tree else (1, "", ERROR_LINE),
    }
