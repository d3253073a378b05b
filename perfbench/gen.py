"""Seeded inputs for the benchmark, built without importing tritree.

Trees are plain adjacency structures.  Their triple tables are computed here
from rooted lowest common ancestors (the median of three leaves is the
deepest of their three pairwise LCAs), so the tables the program reads and
the tables it writes are checked against an independent encoder.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product


@dataclass(frozen=True)
class Tree:
    """An unrooted colored tree: leaves 0..n-1 carry names, the rest colors."""

    names: tuple[str, ...]
    adj: dict[int, list[int]]
    colors: dict[int, str]

    @property
    def n(self) -> int:
        return len(self.names)

    def is_binary(self) -> bool:
        return all(len(self.adj[v]) == 3 for v in self.colors)

    def newick(self) -> str:
        """Newick in the form `tritree reconstruct` prints: rooted at the
        interior neighbor of the smallest taxon, children sorted by text."""

        def render(v: int, parent: int) -> str:
            if v not in self.colors:
                return self.names[v]
            kids = sorted(render(u, v) for u in self.adj[v] if u != parent)
            return "(" + ",".join(kids) + ")" + self.colors[v]

        (root,) = self.adj[min(range(self.n), key=self.names.__getitem__)]
        return render(root, -1) + ";\n"

    def _rooted(self) -> tuple[dict[int, int], dict[int, int], list[int]]:
        """Parent and depth of every vertex, rooted at leaf 0's neighbor, in BFS order."""
        (root,) = self.adj[0]
        parent, depth, order = {root: -1}, {root: 0}, [root]
        for v in order:
            for u in self.adj[v]:
                if u not in parent:
                    parent[u] = v
                    depth[u] = depth[v] + 1
                    order.append(u)
        return parent, depth, order

    def leaves_by_name(self) -> list[int]:
        return sorted(range(self.n), key=self.names.__getitem__)

    def _lca(self) -> tuple[dict[tuple[int, int], int], dict[int, int]]:
        """Pairwise LCAs of leaves (keyed in name order) and vertex depths."""
        parent, depth, _ = self._rooted()
        chain: dict[int, list[int]] = {}
        for v in range(self.n):
            path, w = [], v
            while w != -1:
                path.append(w)
                w = parent[w]
            chain[v] = path
        lca: dict[tuple[int, int], int] = {}
        for a, b in combinations(self.leaves_by_name(), 2):
            on_a = set(chain[a])
            lca[a, b] = next(w for w in chain[b] if w in on_a)
        return lca, depth

    def table(self) -> tuple[tuple[str, ...], tuple[str, ...], dict[tuple[str, str, str], str]]:
        """(sorted taxa, sorted used colors, value of every sorted 3-subset)."""
        lca, depth = self._lca()
        names = self.names
        values: dict[tuple[str, str, str], str] = {}
        for a, b, c in combinations(self.leaves_by_name(), 3):
            m = max((lca[a, b], lca[a, c], lca[b, c]), key=depth.__getitem__)
            values[names[a], names[b], names[c]] = self.colors[m]
        taxa = tuple(names[v] for v in self.leaves_by_name())
        return taxa, tuple(sorted(set(self.colors.values()))), values

    def quartets_text(self) -> str:
        """Displayed quartets in `tritree quartets` form, by the four-point condition."""
        lca, depth = self._lca()

        def dist(a: int, b: int) -> int:
            return depth[a] + depth[b] - 2 * depth[lca[a, b]]

        names = self.names
        found = []
        for a, b, c, d in combinations(self.leaves_by_name(), 4):
            sums = (dist(a, b) + dist(c, d), dist(a, c) + dist(b, d), dist(a, d) + dist(b, c))
            low = min(sums)
            if sums.count(low) == 1:
                (p, q), (r, s) = (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))[sums.index(low)]
                found.append(((names[p], names[q]), (names[r], names[s])))
        return "".join(f"{p} {q} | {r} {s}\n" for (p, q), (r, s) in sorted(found))

    def stars(self) -> list[tuple[tuple[str, ...], str]]:
        """4-subsets whose leaves lie in four different branches at one vertex.

        These are the constant 4-subsets that no fifth taxon resolves, in
        name order, each with the vertex color.
        """
        parent, _, order = self._rooted()
        below: dict[int, frozenset[int]] = {}
        for v in reversed(order):
            kids = [u for u in self.adj[v] if u != parent[v]]
            below[v] = frozenset((v,)) if v < self.n else frozenset().union(*(below[u] for u in kids))
        every = below[order[0]]
        found = []
        for v, color in self.colors.items():
            if len(self.adj[v]) < 4:
                continue
            branches = [below[u] if u != parent[v] else every - below[v] for u in self.adj[v]]
            for group in combinations(branches, 4):
                for quad in product(*group):
                    found.append((tuple(sorted(self.names[x] for x in quad)), color))
        return sorted(found)

def table_text(
    taxa: tuple[str, ...], symbols: tuple[str, ...], values: dict[tuple[str, str, str], str]
) -> str:
    """The triple-table format `tritree encode` writes, line for line."""
    lines = ["taxa: " + " ".join(taxa), "symbols: " + " ".join(symbols)]
    lines.extend(" ".join(tri) + " " + values[tri] for tri in combinations(taxa, 3))
    return "\n".join(lines) + "\n"


def _names(rng: random.Random, n: int) -> tuple[str, ...]:
    names = [f"t{i:02d}" for i in range(1, n + 1)]
    rng.shuffle(names)
    return tuple(names)


def _color(rng: random.Random, n: int, adj: dict[int, list[int]], k: int) -> dict[int, str]:
    """Color interior vertices with k colors, adjacent interior vertices differing."""
    palette = [f"c{i}" for i in range(1, k + 1)]
    interior = [v for v in adj if v >= n]
    start = interior[0]
    colors = {start: rng.choice(palette)}
    order = [start]
    for v in order:
        for u in adj[v]:
            if u >= n and u not in colors:
                colors[u] = rng.choice([c for c in palette if c != colors[v]])
                order.append(u)
    return colors


def _compact(n: int, adj: dict[int, list[int]]) -> dict[int, list[int]]:
    """Renumber interior vertices to n, n+1, ... keeping leaves 0..n-1."""
    interior = sorted(v for v in adj if v >= n)
    new = {v: v for v in range(n)}
    new.update({v: n + i for i, v in enumerate(interior)})
    return {new[v]: sorted(new[u] for u in nbrs) for v, nbrs in adj.items()}


# Share of interior vertices of degree four or more in a random tree, and
# the largest degree.  The cap keeps the number of unresolved 4-subsets,
# which drives the cost of the resolver scans, from swinging widely between
# seeds.
_MULTIFURCATION = 0.3
_MAX_DEGREE = 5
# Interior vertices of a balanced tree hold this many children.
_FANOUT = 4


def random_tree(rng: random.Random, n: int, k: int) -> Tree:
    """Random leaf insertion, then contraction of random interior edges."""
    adj: dict[int, list[int]] = {0: [n], 1: [n], 2: [n], n: [0, 1, 2]}
    edges = [(0, n), (1, n), (2, n)]
    nxt = n + 1
    for leaf in range(3, n):
        i = rng.randrange(len(edges))
        u, v = edges[i]
        mid = nxt
        nxt += 1
        adj[u].remove(v)
        adj[v].remove(u)
        adj[u].append(mid)
        adj[v].append(mid)
        adj[mid] = [u, v, leaf]
        adj[leaf] = [mid]
        edges[i] = (u, mid)
        edges.extend(((mid, v), (mid, leaf)))
    while True:
        interior = [v for v in adj if v >= n]
        wide = sum(len(adj[v]) > 3 for v in interior)
        inner_edges = [
            (u, v)
            for u in interior
            for v in adj[u]
            if v >= n and u < v and len(adj[u]) + len(adj[v]) - 2 <= _MAX_DEGREE
        ]
        if wide >= _MULTIFURCATION * len(interior) or not inner_edges:
            break
        u, v = rng.choice(inner_edges)
        adj[u].remove(v)
        for w in adj.pop(v):
            if w != u:
                adj[w][adj[w].index(v)] = u
                adj[u].append(w)
    adj = _compact(n, adj)
    return Tree(_names(rng, n), adj, _color(rng, n, adj, k))


def caterpillar(rng: random.Random, n: int, k: int) -> Tree:
    """A binary caterpillar: a path of n-2 interior vertices, one leaf on each."""
    spine = list(range(n, 2 * n - 2))
    adj: dict[int, list[int]] = {v: [] for v in range(2 * n - 2)}

    def join(u: int, v: int) -> None:
        adj[u].append(v)
        adj[v].append(u)

    for a, b in zip(spine, spine[1:]):
        join(a, b)
    join(0, spine[0])
    join(n - 1, spine[-1])
    for leaf, v in zip(range(1, n - 1), spine):
        join(leaf, v)
    return Tree(_names(rng, n), adj, _color(rng, n, adj, k))


def balanced(rng: random.Random, n: int, k: int) -> Tree:
    """A shallow multifurcating tree: leaves grouped _FANOUT at a time, level by level."""
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    level = list(range(n))
    nxt = n
    while len(level) > _FANOUT + 1:
        groups = [level[i : i + _FANOUT] for i in range(0, len(level), _FANOUT)]
        if len(groups[-1]) == 1:
            groups[-2].extend(groups.pop())
        level = []
        for group in groups:
            adj[nxt] = list(group)
            for v in group:
                adj[v].append(nxt)
            level.append(nxt)
            nxt += 1
    if len(level) == 2:
        a, b = level
        adj[a].append(b)
        adj[b].append(a)
    else:
        adj[nxt] = list(level)
        for v in level:
            adj[v].append(nxt)
    return Tree(_names(rng, n), adj, _color(rng, n, adj, k))
