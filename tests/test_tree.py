"""Colored trees: validation, medians, encoding, Newick, and isomorphism."""

import random
from itertools import permutations

import pytest
from hypothesis import given

from tritree import (
    ColoredTree,
    NewickParseError,
    TreeValidationError,
    canonical_code,
    enumerate_colorings,
    enumerate_trees,
    parse_newick,
    to_dot,
    trees_isomorphic,
    write_newick,
)
from tritree.checks import _unresolved_stars
from tritree.oracle import _insertions, _shape_adjacency, _shapes

import helpers
import reference_canonical
import reference_medians
import strategies

# 8 000 leaves under one hub, each of 2 000 names four times: the duplicate
# report must not cost n^2.
MANY_LEAVES = [f"x{i % 2000}" for i in range(8000)]
MANY_DUPLICATES = "duplicate taxon names: " + " ".join(sorted(set(MANY_LEAVES)))


class TestValidation:
    def test_minimal_tree(self):
        tree = ColoredTree([(0, 3), (1, 3), (2, 3)], {0: "x", 1: "y", 2: "z"}, {3: "a"})
        assert tree.vertices() == (0, 1, 2, 3)
        assert tree.degree(3) == 3
        assert tree.neighbors(0) == (3,)
        assert tree.leaf_for("y") == 1

    @pytest.mark.parametrize(
        "edges, leaves, colors, complaint",
        [
            ([(0, 0), (1, 2)], {0: "x", 1: "y", 2: "z"}, {}, "self-loop"),
            (
                [(0, 3), (0, 3), (1, 3), (2, 3)],
                {0: "x", 1: "y", 2: "z"},
                {3: "a"},
                "repeated edge",
            ),
            (
                [("0", 3)],
                {0: "x", 1: "y", 2: "z"},
                {3: "a"},
                "must be integers",
            ),
            (
                [(0, 3), (1, 3), (2, 3)],
                {0: "x", 1: "y", 2: "z", 3: "w"},
                {3: "a"},
                "both as a leaf and as a colored interior",
            ),
            (
                [(0, 3), (1, 3), (2, 3)],
                {0: "x", 1: "y"},
                {3: "a"},
                "neither a taxon nor a color",
            ),
            ([(0, 2), (1, 2)], {0: "x", 1: "y"}, {2: "a"}, "at least three leaves"),
            (
                [(0, 3), (1, 3), (2, 3)],
                {0: "x", 1: "x", 2: "z"},
                {3: "a"},
                "duplicate taxon names: x",
            ),
            (
                [(0, 1), (1, 2), (0, 2), (3, 6), (4, 6), (5, 6)],
                {0: "p", 1: "q", 2: "r", 3: "x", 4: "y", 5: "z"},
                {6: "a"},
                "not connected",
            ),
            (
                [(0, 3), (1, 3), (2, 3), (0, 2)],
                {0: "x", 1: "y", 2: "z"},
                {3: "a"},
                "vertices need",
            ),
            (
                [(0, 3), (1, 3), (2, 3), (3, 4), (4, 5)],
                {0: "x", 1: "y", 2: "z", 5: "w"},
                {3: "a", 4: "b"},
                "interior vertex 4 has degree 2",
            ),
            (
                [(0, 3), (1, 3), (2, 3)],
                {0: "x", 1: "y", 2: "z"},
                {3: "no good"},
                "whitespace",
            ),
            (
                [(0, 3), (1, 3), (2, 3)],
                {"0": "x", 1: "y", 2: "z"},
                {3: "a"},
                "must be integers, got '0'",
            ),
            (
                [(0, 3), (1, 3), (2, 3)],
                {0: "x", 1: "y", 2: "z"},
                {"3": "a"},
                "must be integers, got '3'",
            ),
            (
                [(0, 3), (1, 3), (2, 3)],
                {0: 1, 1: "b", 2: "c"},
                {3: "x"},
                "taxon name must be a non-empty string, got 1",
            ),
            (
                [(0, 3), (1, 3), (2, 3)],
                {0: 1, 1: 1, 2: "c"},
                {3: "x"},
                "^taxon name must be a non-empty string, got 1$",
            ),
            pytest.param(
                [(i, len(MANY_LEAVES)) for i in range(len(MANY_LEAVES))],
                dict(enumerate(MANY_LEAVES)),
                {len(MANY_LEAVES): "a"},
                "^" + MANY_DUPLICATES + "$",
                id="8000-leaves-2000-duplicates",
            ),
        ],
    )
    def test_rejects_malformed(self, edges, leaves, colors, complaint):
        with pytest.raises(TreeValidationError, match=complaint):
            ColoredTree(edges, leaves, colors)

    def test_leaf_with_extra_edges_rejected(self):
        with pytest.raises(TreeValidationError, match="leaves must have degree 1"):
            ColoredTree(
                [(0, 4), (1, 4), (2, 4), (4, 3), (3, 5), (5, 6), (5, 7)],
                {0: "v", 1: "w", 2: "x", 3: "y", 6: "z", 7: "q"},
                {4: "a", 5: "b"},
            )


class TestShapePredicates:
    def test_binary_and_discriminating(self, caterpillar, star5):
        assert caterpillar.is_binary()
        assert caterpillar.is_discriminating()
        assert not star5.is_binary()
        assert star5.is_discriminating()

    def test_adjacent_repeat_color_is_not_discriminating(self):
        tree = helpers.caterpillar5(("a", "b", "b"))
        assert not tree.is_discriminating()

    def test_pseudo_cherries(self, caterpillar, cherry_tree, star5):
        assert caterpillar.pseudo_cherries() == (
            (("t1", "t2"), "a"),
            (("t4", "t5"), "c"),
        )
        assert cherry_tree.pseudo_cherries() == (
            (("t1", "t2"), "a"),
            (("t3", "t4", "t5"), "b"),
        )
        assert star5.pseudo_cherries() == ((("t1", "t2", "t3", "t4", "t5"), "a"),)

    def test_single_leaf_neighbors_form_no_pseudo_cherry(self):
        tree = parse_newick("((t1,t2)a,(t3,t4)c,(t5,t6)d)b;")
        assert all(len(members) == 2 for members, _ in tree.pseudo_cherries())
        assert len(tree.pseudo_cherries()) == 3


class TestMedianAndEncoding:
    def test_median_on_the_caterpillar(self, caterpillar):
        assert caterpillar.median("t1", "t2", "t3") == 5
        assert caterpillar.median("t1", "t2", "t5") == 5
        assert caterpillar.median("t1", "t3", "t4") == 6
        assert caterpillar.median("t1", "t4", "t5") == 7
        assert caterpillar.median("t3", "t4", "t5") == 7

    def test_median_argument_checks(self, caterpillar):
        with pytest.raises(ValueError, match="three distinct taxa"):
            caterpillar.median("t1", "t1", "t2")

    @given(strategies.corpus_trees(sizes=(5, 6)))
    def test_median_ignores_argument_order(self, tree):
        for tri in tree.taxa.triples():
            vertices = {tree.median(*ordering) for ordering in permutations(tri)}
            assert len(vertices) == 1

    def test_caterpillar_encoding_is_the_frozen_table(self, caterpillar):
        expected = {
            ("t1", "t2", "t3"): "a",
            ("t1", "t2", "t4"): "a",
            ("t1", "t2", "t5"): "a",
            ("t1", "t3", "t4"): "b",
            ("t1", "t3", "t5"): "b",
            ("t2", "t3", "t4"): "b",
            ("t2", "t3", "t5"): "b",
            ("t1", "t4", "t5"): "c",
            ("t2", "t4", "t5"): "c",
            ("t3", "t4", "t5"): "c",
        }
        assert dict(caterpillar.encode().entries()) == expected

    def test_cherry_encoding(self, cherry_tree):
        tmap = cherry_tree.encode()
        counts = {}
        for _, symbol in tmap.entries():
            counts[symbol] = counts.get(symbol, 0) + 1
        assert counts == {"a": 3, "b": 7}
        assert tmap.triple_value(("t1", "t2", "t5")) == "a"

    def test_displayed_quartets(self, caterpillar, cherry_tree, star5):
        assert [str(q) for q in caterpillar.displayed_quartets()] == [
            "t1 t2 | t3 t4",
            "t1 t2 | t3 t5",
            "t1 t2 | t4 t5",
            "t1 t3 | t4 t5",
            "t2 t3 | t4 t5",
        ]
        assert [str(q) for q in cherry_tree.displayed_quartets()] == [
            "t1 t2 | t3 t4",
            "t1 t2 | t3 t5",
            "t1 t2 | t4 t5",
        ]
        assert len(star5.displayed_quartets()) == 0


class TestBranchWalk:
    """displayed_quartets and the star lines, read from each vertex's
    branches, against the frozen sweep over every 4-subset's medians."""

    @staticmethod
    def assert_as_reference(trees):
        for tree in trees:
            # Equal members print the same text: to_text sorts them.
            assert tree.displayed_quartets() == reference_medians.displayed_quartets(tree)
            for fail_fast in (False, True):
                expected = reference_medians.unresolved_stars(tree, fail_fast)
                assert _unresolved_stars(tree, fail_fast) == expected

    def test_every_topology_on_3_to_7_leaves(self):
        topologies = [t for n in range(3, 8) for t in enumerate_trees(n).topologies]
        assert len(topologies) == 3019
        self.assert_as_reference(
            t.with_colors(next(enumerate_colorings(t, helpers.PALETTE))) for t in topologies
        )

    def test_corpus_on_4_to_6_leaves(self):
        self.assert_as_reference(t for n in (4, 5, 6) for t in helpers.colored_trees(n))

    def test_random_trees(self):
        rng = random.Random(12)
        self.assert_as_reference(helpers.random_tree(rng, rng.randint(4, 30)) for _ in range(300))

    @pytest.mark.parametrize("degree", range(4, 9))
    def test_forced_polytomies(self, degree):
        rng = random.Random(degree)
        trees = [helpers.forced_polytomy(rng, degree, rng.randint(degree, 24)) for _ in range(40)]
        assert all(max(map(t.degree, t.colors)) >= degree for t in trees)
        self.assert_as_reference(trees)

    @pytest.mark.parametrize(
        "text, first",
        [
            # The walk meets a first, at the far end from t1; b holds the smallest star.
            ("((t1,t2,t3,t4)b,t5,t6,t7,t8)a;", "t1 t2 t3 t4 DETAIL constant value b"),
            ("((t5,t6,t7,t8)b,t1,t2,t3,t4)a;", "t1 t2 t3 t4 DETAIL constant value a"),
            ("(((t6,t7,t8,t9)b,t5)c,t3,t2,(t1,t4)c)a;", "t1 t2 t3 t5 DETAIL constant value a"),
            # Six branches at a, t1's last: the four smallest minima, not the first four.
            ("((t1,t9)c,(t2,t8)b,(t6,t7)c,t5,t3,t4)a;", "t1 t2 t3 t4 DETAIL constant value a"),
            ("((t2,t9)c,(t1,t8)b,(t6,t7)c,t5,t3,t4)a;", "t1 t2 t3 t4 DETAIL constant value a"),
        ],
    )
    def test_fail_fast_takes_the_least_star_over_all_vertices(self, text, first):
        tree = parse_newick(text)
        (star,) = _unresolved_stars(tree, True)
        assert star.line == f"COND * SUBSET {first} with no resolving taxon"
        assert (star,) == reference_medians.unresolved_stars(tree, True)
        assert _unresolved_stars(tree, False)[0] == star


class TestIsomorphism:
    def test_vertex_ids_do_not_matter(self, caterpillar):
        relabeled = ColoredTree(
            [(10, 95), (11, 95), (95, 96), (12, 96), (96, 97), (13, 97), (14, 97)],
            {10: "t1", 11: "t2", 12: "t3", 13: "t4", 14: "t5"},
            {95: "a", 96: "b", 97: "c"},
        )
        assert trees_isomorphic(caterpillar, relabeled)
        assert caterpillar.canonical_form() == relabeled.canonical_form()

    def test_colors_matter(self, caterpillar):
        recolored = helpers.caterpillar5(("a", "b", "a"))
        assert not trees_isomorphic(caterpillar, recolored)

    def test_leaf_placement_matters(self, caterpillar):
        swapped = ColoredTree(
            [(0, 5), (2, 5), (5, 6), (1, 6), (6, 7), (3, 7), (4, 7)],
            {0: "t1", 2: "t3", 1: "t2", 3: "t4", 4: "t5"},
            {5: "a", 6: "b", 7: "c"},
        )
        assert not trees_isomorphic(caterpillar, swapped)

    def test_shape_matters(self, cherry_tree, star5):
        assert not trees_isomorphic(cherry_tree, star5)


def shuffled(rng, adj, leaf_names, colors=None):
    """The same tree under a random renumbering of its vertices, with every
    neighbor list in random order."""
    ids = list(adj)
    new = dict(zip(ids, rng.sample(ids, len(ids))))
    moved = {new[v]: rng.sample([new[u] for u in nbrs], len(nbrs)) for v, nbrs in adj.items()}
    names = {new[v]: name for v, name in leaf_names.items()}
    return moved, names, None if colors is None else {new[v]: c for v, c in colors.items()}


class TestCanonicalCode:
    """canonical_code against the frozen tuple code it replaced: the two must
    split trees into the same classes, that is, map one-to-one."""

    @staticmethod
    def assert_same_partition(cases, rng):
        cases = [c for case in cases for c in (case, shuffled(rng, *case))]
        pairs = {(reference_canonical.canonical_code(*c), canonical_code(*c)) for c in cases}
        assert len({old for old, _ in pairs}) == len(pairs) == len({new for _, new in pairs})
        return len(pairs)

    def test_all_topologies_on_3_to_7_leaves_uncolored(self):
        cases = []
        for n in range(3, 8):
            labels = {i: f"t{i + 1}" for i in range(n)}
            grown = _shapes(3) if n == 3 else [
                edges for shape in _shapes(n - 1) for edges in _insertions(shape, n - 1)
            ]
            cases += [(_shape_adjacency(edges), labels) for edges in grown]
            cases += [(t.adjacency(), dict(t.leaf_taxa)) for t in enumerate_trees(n).topologies]
        assert self.assert_same_partition(cases, random.Random(3)) == 1 + 4 + 26 + 236 + 2752

    def test_colored_corpus_on_4_to_6_leaves(self):
        trees = [tree for n in (4, 5, 6) for tree in helpers.colored_trees(n)]
        cases = [(tree._adj, tree.leaf_taxa, tree.colors) for tree in trees]
        assert self.assert_same_partition(cases, random.Random(4)) == len(trees)

    def test_seeded_random_trees_up_to_30_leaves(self):
        rng = random.Random(30)
        trees = [helpers.random_tree(rng, rng.randint(4, 30)) for _ in range(300)]
        cases = [(tree._adj, tree.leaf_taxa, tree.colors) for tree in trees]
        cases += [(tree._adj, tree.leaf_taxa) for tree in trees]
        self.assert_same_partition(cases, rng)


PARSE_ERRORS = [
    ("(x,y,z)a", "expected ';'", 8),
    ("(x,y,z)a; junk", "trailing content", 10),
    ("(x,y,z;", "expected ',' or '\\)'", 6),
    ("(x,y,z)a:1;", "branch lengths", 8),
    ("(x:0.5,y,z)a;", "branch lengths", 2),
    ("(:1,a,b)c;", "branch lengths", 1),
    ("((x,y),z,w)a;", "needs a color label", 6),
    ("(x,y,z);", "root needs a color label", 7),
    ("(x,,z)a;", "unexpected character ','", 3),
    ("()a;", "unexpected character '\\)'", 1),
    ("", "unexpected end of input", 0),
    ("(x,y,@p)a;", "reserved", 5),
    # Where more than one rule applies, the first in reading order wins.
    ("((@p,y),z,w);", "reserved", 2),
    ("((x,y),(z,w),v);", "root needs a color label", 15),
    ("((x,y)a,(z,w))b;", "interior vertex needs a color label", 13),
    ("((x,y) , z,w) a ;", "interior vertex needs a color label", 7),
    ("(x,y,z) :1;", "branch lengths", 8),
    ("(x,y,z)a#;", "expected ';'", 8),
    ("(x y,z)a;", "expected ',' or '\\)'", 3),
]


class TestNewick:
    def test_parse_star(self, star5):
        assert trees_isomorphic(parse_newick("(t1,t2,t3,t4,t5)a;"), star5)

    def test_parse_nested_with_whitespace(self, caterpillar):
        text = " ( (t1 , t2) a , ( (t4,t5) c , t3 ) b ) ;\n"
        assert trees_isomorphic(parse_newick(text), caterpillar)

    def test_unlabeled_two_child_root_is_suppressed(self, caterpillar):
        rooted = parse_newick("((t1,t2)a,(t3,(t4,t5)c)b);")
        assert trees_isomorphic(rooted, caterpillar)

    @pytest.mark.parametrize(
        "text, colors",
        [
            ("((t1,t2)a,(t3,t4)b,t5)c;", {5: "c", 6: "a", 7: "b"}),
            ("((x,y)a,(z,w)b) ;", {4: "a", 5: "b"}),
        ],
    )
    def test_vertex_ids(self, text, colors):
        # Leaves take the index of their name in sorted order; interior
        # vertices follow in the order their '(' opens.
        tree = parse_newick(text)
        assert tree.colors == colors
        assert tree.leaf_taxa == dict(enumerate(sorted(tree.leaf_taxa.values())))

    def test_write_is_deterministic(self, caterpillar, star5):
        assert write_newick(caterpillar) == "(((t4,t5)c,t3)b,t1,t2)a;"
        assert write_newick(star5) == "(t1,t2,t3,t4,t5)a;"

    @given(strategies.corpus_trees())
    def test_write_then_parse_roundtrip(self, tree):
        text = write_newick(tree)
        back = parse_newick(text)
        assert trees_isomorphic(back, tree)
        assert write_newick(back) == text

    def test_deep_caterpillar_roundtrip(self):
        # 1100 leaves nest about 1100 deep, past the default recursion limit.
        text = "t0001"
        for i in range(2, 1099):
            text = f"({text},t{i:04d}){'ab'[i % 2]}"
        text = f"({text},t1099,t1100)b;"
        tree = parse_newick(text)
        assert len(tree.leaf_taxa) == 1100
        written = write_newick(tree)
        assert written.startswith("(" * 1097) and written.endswith(",t0001,t0002)a;")
        back = parse_newick(written)
        assert write_newick(back) == written
        assert tree.canonical_form()[0] == "t0001"
        assert trees_isomorphic(tree, back)

    @pytest.mark.parametrize(
        "text, complaint, position",
        PARSE_ERRORS,
        # Named by text and complaint alone, so a moved position fails a case
        # rather than renaming it.
        ids=[f"{text}-{complaint}" for text, complaint, _ in PARSE_ERRORS],
    )
    def test_parse_errors(self, text, complaint, position):
        with pytest.raises(NewickParseError, match=complaint) as err:
            parse_newick(text)
        assert err.value.position == position

    def test_branch_length_error_position(self):
        with pytest.raises(NewickParseError) as err:
            parse_newick("(x:0.5,y,z)a;")
        assert err.value.position == 2

    @pytest.mark.parametrize(
        "text, complaint",
        [
            ("((x,y,z)a)b;", "degree 1"),
            ("((x,y)a)b;", "at least three leaves"),
            ("(x,y)a;", "at least three leaves"),
            ("(x,(y,z)c)a;", "degree 2"),
            ("(x,x,y)a;", "duplicate taxon names: x"),
            ("((x,x),z,w);", "duplicate taxon names: x"),
            pytest.param(
                "(" + ",".join(MANY_LEAVES) + ")a;",
                "^" + MANY_DUPLICATES + "$",
                id="8000-leaves-2000-duplicates",
            ),
        ],
    )
    def test_structural_errors(self, text, complaint):
        with pytest.raises(TreeValidationError, match=complaint):
            parse_newick(text)


class TestDot:
    def test_dot_lists_every_vertex_and_edge(self, caterpillar):
        text = to_dot(caterpillar)
        assert text.startswith("graph colored_tree {")
        assert text.count("shape=box") == 5
        assert text.count("shape=circle") == 3
        assert text.count(" -- ") == 7
        assert 'label="t1"' in text and 'label="a"' in text

    def test_dot_escapes_quotes(self):
        tree = ColoredTree(
            [(0, 3), (1, 3), (2, 3)], {0: 'say"hi', 1: "y", 2: "z"}, {3: "a"}
        )
        assert 'label="say\\"hi"' in to_dot(tree)
