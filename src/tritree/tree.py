"""Colored unrooted trees on labeled leaves.

A colored tree has its leaves labeled bijectively by taxa and every interior
vertex labeled by a color symbol.  Degree-2 vertices are banned, so "interior"
always means degree 3 or more.  The tree encodes a ternary map: the value on
three taxa is the color of their median, the single vertex shared by the three
pairwise leaf paths.

Trees are read and written in a restricted Newick dialect: rooted syntax
interpreted as an unrooted tree, interior labels mandatory (they are the
colors), no branch lengths.  A two-child unlabeled root is understood as an
artifact of rooting an edge and is suppressed on input.
"""

from __future__ import annotations

import re
from itertools import combinations
from typing import Iterable, Iterator, Mapping

from .core import SymbolAlphabet, TaxonSet, TernaryMap, _require_distinct, check_identifier
from .core import _RESERVED_CHARS
from .quartets import QuartetSystem

__all__ = [
    "ColoredTree",
    "NewickParseError",
    "TreeValidationError",
    "canonical_code",
    "parse_newick",
    "to_dot",
    "trees_isomorphic",
    "write_newick",
]


class TreeValidationError(ValueError):
    """The vertex, edge, taxon, and color data do not form a valid colored tree."""


class NewickParseError(ValueError):
    """A Newick text could not be parsed in this dialect."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ColoredTree:
    """An unrooted tree with taxon-labeled leaves and color-labeled interior vertices.

    Vertices are integers.  ``leaf_taxa`` maps each degree-1 vertex to its
    taxon, ``colors`` maps each interior vertex to its color; the two key
    sets must partition the vertex set.
    """

    __slots__ = ("edges", "leaf_taxa", "colors", "taxa", "_adj", "_leaf_of", "_lca")

    def __init__(
        self,
        edges: Iterable[tuple[int, int]],
        leaf_taxa: Mapping[int, str],
        colors: Mapping[int, str],
    ) -> None:
        edge_list: list[tuple[int, int]] = []
        for u, v in edges:
            if not isinstance(u, int) or not isinstance(v, int):
                raise TreeValidationError(f"vertex ids must be integers, got ({u!r}, {v!r})")
            if u == v:
                raise TreeValidationError(f"self-loop at vertex {u}")
            edge_list.append((u, v) if u < v else (v, u))
        edge_set = set(edge_list)
        if len(edge_set) != len(edge_list):
            raise TreeValidationError("repeated edge")
        leaves = dict(leaf_taxa)
        interior = dict(colors)
        for v in (*leaves, *interior):
            if not isinstance(v, int):
                raise TreeValidationError(f"vertex ids must be integers, got {v!r}")
        vertices = {v for e in edge_set for v in e} | set(leaves) | set(interior)
        overlap = set(leaves) & set(interior)
        if overlap:
            raise TreeValidationError(
                f"vertex {min(overlap)} is listed both as a leaf and as a colored interior vertex"
            )
        uncovered = vertices - set(leaves) - set(interior)
        if uncovered:
            raise TreeValidationError(f"vertex {min(uncovered)} has neither a taxon nor a color")
        names = list(leaves.values())
        if len(names) < 3:
            raise TreeValidationError(f"a tree needs at least three leaves, got {len(names)}")
        _require_distinct(names, TreeValidationError)
        if len(edge_set) != len(vertices) - 1:
            raise TreeValidationError(
                f"not a tree: {len(vertices)} vertices need {len(vertices) - 1} edges, got {len(edge_set)}"
            )
        adj: dict[int, list[int]] = {v: [] for v in vertices}
        for u, v in edge_set:
            adj[u].append(v)
            adj[v].append(u)
        if len(_breadth_first(adj, next(iter(vertices)))[0]) != len(vertices):
            raise TreeValidationError("not a tree: the edge set is not connected")
        for v in sorted(vertices):
            d = len(adj[v])
            if v in leaves and d != 1:
                raise TreeValidationError(
                    f"leaf vertex {v} ({leaves[v]!r}) has degree {d}, leaves must have degree 1"
                )
            if v in interior and d < 3:
                raise TreeValidationError(
                    f"interior vertex {v} has degree {d}, interior vertices need degree 3 or more"
                )
        try:
            taxa = TaxonSet(tuple(names))
            for color in interior.values():
                check_identifier(color, "color")
        except ValueError as exc:
            raise TreeValidationError(str(exc)) from exc

        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(edge_set))
        self.leaf_taxa: dict[int, str] = leaves
        self.colors: dict[int, str] = interior
        self.taxa = taxa
        self._adj = {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}
        self._leaf_of = {name: v for v, name in leaves.items()}
        self._lca: list[list[int]] | None = None

    # -- structure ---------------------------------------------------------

    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self._adj))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def leaf_for(self, taxon: str) -> int:
        self.taxa.require(taxon)
        return self._leaf_of[taxon]

    def is_binary(self) -> bool:
        """True when every interior vertex has degree exactly 3."""
        return all(len(self._adj[v]) == 3 for v in self.colors)

    def is_discriminating(self) -> bool:
        """True when no two adjacent interior vertices share a color."""
        return all(
            self.colors[u] != self.colors[v]
            for u, v in self.edges
            if u in self.colors and v in self.colors
        )

    def pseudo_cherries(self) -> tuple[tuple[tuple[str, ...], str], ...]:
        """Groups of two or more leaves sharing one interior vertex.

        Each entry pairs the sorted taxa of all leaves at that vertex with
        the vertex's color; entries are sorted by the taxa tuple.
        """
        found = []
        for v in self.colors:
            leaf_nbrs = [self.leaf_taxa[u] for u in self._adj[v] if u in self.leaf_taxa]
            if len(leaf_nbrs) >= 2:
                found.append((tuple(sorted(leaf_nbrs)), self.colors[v]))
        return tuple(sorted(found))

    # -- medians and encoding ----------------------------------------------

    def _branches(self) -> Iterator[tuple[int, list[list[int]]]]:
        """Each interior vertex, children before parents with the tree rooted
        at the leaf of the smallest taxon, and the taxon positions in each of
        its branches: one per child, then the remaining taxa last."""
        everyone = set(range(len(self.taxa)))
        order, parent = _breadth_first(self._adj, self._leaf_of[self.taxa.names[0]])
        below: dict[int, list[int]] = {}
        for v in reversed(order[1:]):
            if v in self.leaf_taxa:
                below[v] = [self.taxa.index(self.leaf_taxa[v])]
                continue
            parts = [below.pop(u) for u in self._adj[v] if u != parent[v]]
            below[v] = inside = [i for part in parts for i in part]
            yield v, parts + [sorted(everyone.difference(inside))]

    def _lca_table(self) -> list[list[int]]:
        """Lowest common ancestors of leaf pairs, indexed by taxon position, in
        the rooting of _branches: a pair meets where two child branches hold it.

        Whatever the root, the median of three leaves is the deepest of their
        three pairwise LCAs: two of them coincide and the third is that
        vertex or lies below it.
        """
        if self._lca is None:
            n = len(self.taxa)
            root = self._leaf_of[self.taxa.names[0]]
            self._lca = table = [[root] * n for _ in range(n)]
            for v, parts in self._branches():
                for a, b in combinations(parts[:-1], 2):
                    for i in a:
                        for j in b:
                            table[i][j] = table[j][i] = v
        return self._lca

    def median(self, x: str, y: str, z: str) -> int:
        """The single vertex lying on all three pairwise paths between the taxa."""
        i, j, k = (self.taxa.index(t) for t in (x, y, z))
        if len({x, y, z}) != 3:
            raise ValueError("the median is defined for three distinct taxa")
        lca = self._lca_table()
        return _deepest(lca[i][j], lca[i][k], lca[j][k])

    def encode(self) -> TernaryMap:
        """The ternary map sending each 3-subset of taxa to its median's color."""
        alphabet = SymbolAlphabet(self.colors.values())
        return TernaryMap._of(self.taxa, alphabet, _median_colors(self._lca_table(), self.colors))

    def displayed_quartets(self) -> QuartetSystem:
        """Quartets a b | c d whose two pair paths share no vertex."""
        return QuartetSystem._of(self.taxa, self._quartet_positions())

    def _quartet_positions(self) -> Iterator[tuple[int, int, int, int]]:
        """displayed_quartets as positions (a, b, c, d), a the smallest, a < b and c < d:
        each once, at the vertex with a and b in one branch and c and d in two others
        (of the two such vertices, one per pair, the one whose shared branch holds a)."""
        for _, parts in self._branches():
            for p, part in enumerate(parts):
                part, others = sorted(part), parts[:p] + parts[p + 1 :]
                for x, a in enumerate(part[:-1]):
                    pairs = combinations([[c for c in o if c > a] for o in others], 2)
                    cds = [(c, d) if c < d else (d, c) for q, r in pairs for c in q for d in r]
                    for b in part[x + 1 :]:
                        for c, d in cds:
                            yield a, b, c, d

    # -- comparison ----------------------------------------------------------

    def canonical_form(self) -> tuple:
        """A value equal across exactly the isomorphic colored trees on these
        taxa: the smallest taxon and the write_newick text (see canonical_code)."""
        return canonical_code(self._adj, self.leaf_taxa, self.colors)

    def __repr__(self) -> str:
        return f"ColoredTree(leaves={len(self.leaf_taxa)}, interior={len(self.colors)})"


def _deepest(ij: int, ik: int, jk: int) -> int:
    """The median from the three pairwise LCAs: the one unlike the other two."""
    if ij == ik:
        return jk
    return ik if ij == jk else ij


def _median_colors(lca: list[list[int]], colors: Mapping[int, str]) -> Iterator[str]:
    """The color of the median of each 3-subset of positions, in combinations
    order, from a table of pairwise LCAs in any rooting."""
    n = len(lca)
    for i, j in combinations(range(n), 2):
        row_i, row_j = lca[i], lca[j]
        ij = row_i[j]
        for k in range(j + 1, n):
            yield colors[_deepest(ij, row_i[k], row_j[k])]


def _breadth_first(
    adj: Mapping[int, Iterable[int]], root: int
) -> tuple[list[int], dict[int, int | None]]:
    """Vertices reachable from root in breadth-first order, and each one's parent."""
    order = [root]
    parent: dict[int, int | None] = {root: None}
    for v in order:
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    return order, parent


def canonical_code(
    adj: Mapping[int, Iterable[int]],
    leaf_names: Mapping[int, str],
    colors: Mapping[int, str] | None = None,
) -> tuple:
    """Canonical code of a leaf-labeled tree: its smallest taxon and the
    sorted-children text write_newick prints (the rooted AHU form).  While no
    name holds a reserved Newick character, it is equal for exactly the
    isomorphic trees, colored ones when ``colors`` is given.  Two strings
    compare and hash without recursion at any depth."""
    root, text = _rendered(adj, leaf_names, colors or {})
    return min(leaf_names.values()), text[root]


def trees_isomorphic(a: ColoredTree, b: ColoredTree) -> bool:
    """True when the trees match up to relabeling of vertices (taxa and colors fixed)."""
    return a.taxa.names == b.taxa.names and a.canonical_form() == b.canonical_form()


# -- Newick dialect ----------------------------------------------------------

# A name, any other character, or the end; group 1 starts past the whitespace.
_TOKEN = re.compile(rf"\s*([^\s{re.escape(''.join(sorted(_RESERVED_CHARS)))}]+|.|\Z)", re.S)


def parse_newick(text: str) -> ColoredTree:
    """Parse one tree in the restricted Newick dialect.

    Interior labels are colors and are mandatory, except that a root with
    exactly two children may stay unlabeled: it is then removed and its two
    children joined by an edge, undoing a rooting of the unrooted tree.
    """
    tokens = ((m[1], m.start(1)) for m in _TOKEN.finditer(text))
    leaves: list[tuple[str, int, int | None]] = []  # name, position, parent
    inner: list[list] = []  # parent, label, label position; in '(' order
    open_groups: list[int] = []
    for tok, pos in tokens:
        parent = open_groups[-1] if open_groups else None
        if tok == "(":
            open_groups.append(len(inner))
            inner.append([parent, "", pos])
            continue
        if tok == "":
            raise NewickParseError("unexpected end of input", pos)
        if tok == ":":
            raise NewickParseError("branch lengths are not supported", pos)
        if tok in _RESERVED_CHARS:
            raise NewickParseError(f"unexpected character {tok!r}", pos)
        leaves.append((tok, pos, parent))
        tok, pos = next(tokens)
        # Close every group this subtree ends, up to the next sibling.
        while True:
            if tok == ":":
                raise NewickParseError("branch lengths are not supported", pos)
            if not open_groups or tok != ")":
                break
            vertex = inner[open_groups.pop()]
            tok, pos = next(tokens)
            vertex[2] = pos
            if tok and tok not in _RESERVED_CHARS:
                vertex[1] = tok
                tok, pos = next(tokens)
        if not open_groups:
            break
        if tok != ",":
            raise NewickParseError("expected ',' or ')'", pos)
    if tok != ";":
        raise NewickParseError("expected ';'", pos)
    tok, pos = next(tokens)
    if tok:
        raise NewickParseError("trailing content after ';'", pos)

    for name, pos, _ in leaves:
        if name.startswith("@"):
            raise NewickParseError(
                f"taxon name {name!r} is reserved ('@' prefixes composite taxa)", pos
            )
    names = [name for name, _, _ in leaves]
    _require_distinct(names, TreeValidationError)

    # Leaves take their sorted-name index; interior vertices follow in '('
    # order, which is pre-order, less an unlabeled root that is dropped.
    leaf_id = {name: i for i, name in enumerate(sorted(names))}
    drop = bool(inner) and not inner[0][1]
    ids = [len(names) + k - drop for k in range(len(inner))]
    links = [(p, ids[k]) for k, (p, _, _) in enumerate(inner)]
    links += [(p, leaf_id[name]) for name, _, p in leaves]
    ends = [v for p, v in links if p == 0]
    if drop and len(ends) != 2:
        raise NewickParseError(
            "the root needs a color label unless it has exactly two children", inner[0][2]
        )
    for _, label, pos in inner[drop:]:
        if not label:
            raise NewickParseError("interior vertex needs a color label", pos)
    edges = [(ids[p], v) for p, v in links if p is not None and not (drop and p == 0)]
    if drop:
        edges.append((ends[0], ends[1]))
    colors = {ids[k]: inner[k][1] for k in range(drop, len(inner))}
    return ColoredTree(edges, {leaf_id[name]: name for name in names}, colors)


def _rendered(
    adj: Mapping[int, Iterable[int]], leaf_names: Mapping[int, str], colors: Mapping[int, str]
) -> tuple[int, dict[int, str]]:
    """The interior neighbor of the smallest taxon, and the Newick text of
    every subtree when the tree is rooted there, children sorted by their text.
    An interior vertex missing from ``colors`` gets an empty label."""
    (root,) = adj[min(leaf_names, key=leaf_names.__getitem__)]
    order, parent = _breadth_first(adj, root)
    text: dict[int, str] = {}
    for v in reversed(order):
        if v in leaf_names:
            text[v] = leaf_names[v]
            continue
        parts = sorted(text[u] for u in adj[v] if u != parent[v])
        text[v] = "(" + ",".join(parts) + ")" + colors.get(v, "")
    return root, text


def write_newick(tree: ColoredTree) -> str:
    """Serialize a colored tree, rooted at the interior neighbor of the smallest taxon.

    Children are ordered by their rendered text, so equal trees print
    identically.
    """
    root, text = _rendered(tree._adj, tree.leaf_taxa, tree.colors)
    return text[root] + ";"


def _renumbered(tree: ColoredTree) -> ColoredTree:
    """The tree with interior vertices numbered from the leaf count up, in the
    order write_newick prints them.  Leaf ids must be 0 .. n-1 and stay."""
    root, text = _rendered(tree._adj, tree.leaf_taxa, tree.colors)
    new_id = {v: v for v in tree.leaf_taxa}
    stack = [root]
    while stack:
        v = stack.pop()
        new_id[v] = len(new_id)
        kids = [u for u in tree.neighbors(v) if u not in new_id]
        stack.extend(sorted(kids, key=text.__getitem__, reverse=True))
    return ColoredTree(
        [(new_id[u], new_id[v]) for u, v in tree.edges],
        tree.leaf_taxa,
        {new_id[v]: color for v, color in tree.colors.items()},
    )


def to_dot(tree: ColoredTree) -> str:
    """Graphviz text for a colored tree: boxed leaves, round colored interiors."""

    def quote(label: str) -> str:
        return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["graph colored_tree {"]
    for v in sorted(tree.leaf_taxa):
        lines.append(f"  v{v} [shape=box label={quote(tree.leaf_taxa[v])}];")
    for v in sorted(tree.colors):
        lines.append(f"  v{v} [shape=circle label={quote(tree.colors[v])}];")
    for u, v in tree.edges:
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
