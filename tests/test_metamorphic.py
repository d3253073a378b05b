"""Metamorphic tests: renaming taxa or symbols commutes with encoding and
with both reconstruction routes, on encodings and on their perturbations;
restricting an encoding to a subset of taxa gives the encoding of the
induced subtree.

Taxa are renamed by an order-reversing map, so that the smallest taxon (the
root of the accept route) and the first merge class (the first contraction
of the explain route) change; symbols are renamed in reverse order too.
"""

import random

import pytest

from tritree import (
    ColoredTree,
    NotAMetricError,
    SymbolAlphabet,
    TaxonSet,
    TernaryMap,
    parse_newick,
    reconstruct_tree,
    trees_isomorphic,
)

import helpers

SYMBOLS = ("a", "b", "c", "d")
SAME_SYMBOLS = {s: s for s in SYMBOLS}
REVERSED_SYMBOLS = dict(zip(SYMBOLS, ("z", "y", "x", "w")))


def reversing(names):
    """Taxon names onto x00, x01, ... with the order of the names reversed."""
    return {name: f"x{len(names) - 1 - i:02d}" for i, name in enumerate(sorted(names))}


def renamed_tree(tree, taxa, symbols):
    leaves = {v: taxa[name] for v, name in tree.leaf_taxa.items()}
    return ColoredTree(tree.edges, leaves, {v: symbols[c] for v, c in tree.colors.items()})


def renamed_map(tmap, taxa, symbols):
    return TernaryMap(
        TaxonSet(tuple(taxa[name] for name in tmap.taxa.names)),
        SymbolAlphabet(frozenset(symbols[s] for s in tmap.alphabet.symbols)),
        {tuple(taxa[t] for t in tri): symbols[value] for tri, value in tmap.entries()},
    )


def renamings(names):
    """Taxa alone, symbols alone, and both."""
    same, reversed_taxa = {t: t for t in names}, reversing(names)
    return (
        (reversed_taxa, SAME_SYMBOLS),
        (same, REVERSED_SYMBOLS),
        (reversed_taxa, REVERSED_SYMBOLS),
    )


def random_trees(seed, count=20):
    rng = random.Random(seed)
    for _ in range(count):
        yield helpers.random_tree(rng, rng.randint(3, 12), SYMBOLS)


def reconstructed(tmap, explain):
    """The tree of the chosen route, or None when it rejects the map."""
    try:
        return reconstruct_tree(tmap, on_step=(lambda step: None) if explain else None)
    except NotAMetricError:
        return None


def test_renaming_commutes_with_encode():
    for tree in random_trees(41):
        for taxa, symbols in renamings(tree.taxa.names):
            want = renamed_map(tree.encode(), taxa, symbols)
            assert renamed_tree(tree, taxa, symbols).encode() == want


@pytest.mark.parametrize("explain", [False, True], ids=["accept-route", "explain-route"])
def test_renaming_commutes_with_reconstruction(explain):
    rng = random.Random(43)
    rejected = 0
    for tree in random_trees(42):
        tmap = tree.encode()
        for source in (tmap, helpers.perturbed(rng, tmap, 1, SYMBOLS)):
            rebuilt = reconstructed(source, explain)
            rejected += rebuilt is None
            for taxa, symbols in renamings(tree.taxa.names):
                got = reconstructed(renamed_map(source, taxa, symbols), explain)
                assert (got is None) == (rebuilt is None), source.to_table_text()
                if got is not None:
                    assert trees_isomorphic(got, renamed_tree(rebuilt, taxa, symbols))
        assert trees_isomorphic(reconstructed(tmap, explain), tree)
    assert rejected >= 15


def induced(tree, keep):
    """The subtree spanned by the kept taxa: the other leaves pruned,
    degree-2 vertices suppressed, and adjacent vertices of one color merged."""
    kept = {v for v, name in tree.leaf_taxa.items() if name in keep}
    adj = {v: set(tree.neighbors(v)) for v in tree.vertices()}
    bare = [v for v in adj if len(adj[v]) == 1 and v not in kept]
    while bare:
        v = bare.pop()
        (u,) = adj.pop(v)
        adj[u].remove(v)
        if len(adj[u]) == 1 and u not in kept:
            bare.append(u)
    for v in [v for v in adj if len(adj[v]) == 2]:
        a, b = adj.pop(v)
        adj[a].remove(v)
        adj[b].remove(v)
        adj[a].add(b)
        adj[b].add(a)
    # Union-find, so that a chain of one color merges into one vertex.
    root = {v: v for v in adj}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    edges = [(u, v) for u in adj for v in adj[u] if u < v]
    for u, v in edges:
        if u in tree.colors and v in tree.colors and tree.colors[u] == tree.colors[v]:
            root[find(u)] = find(v)
    return ColoredTree(
        [(find(u), find(v)) for u, v in edges if find(u) != find(v)],
        {v: tree.leaf_taxa[v] for v in kept},
        {find(v): tree.colors[v] for v in adj if v in tree.colors},
    )


def test_induced_merges_a_chain_of_one_color():
    tree = parse_newick("(t1,t2,(u1,(t3,(u2,(t4,t5)a)b)a)b)a;")
    sub = induced(tree, ("t1", "t2", "t3", "t4", "t5"))
    assert trees_isomorphic(sub, parse_newick("(t1,t2,t3,t4,t5)a;"))


def test_restriction_commutes_with_encode_and_reconstruction():
    rng = random.Random(44)
    for _ in range(100):
        tree = helpers.random_tree(rng, rng.randint(4, 12), SYMBOLS)
        keep = rng.sample(tree.taxa.names, rng.randint(3, len(tree.taxa)))
        sub = induced(tree, keep)
        restricted = tree.encode().restrict(keep)
        assert restricted == sub.encode()
        assert trees_isomorphic(reconstruct_tree(restricted), sub)
