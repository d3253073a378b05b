"""Frozen reference copy of the median sweep over 4-subsets, for the tests only.

These are the bodies ``ColoredTree.displayed_quartets`` and
``checks._unresolved_stars`` had before they read each vertex's branches from
``ColoredTree._branches``: for every 4-subset of taxon positions, the medians
of three of its triples decide which split it displays, or that all four
triples share one median (a star 4-subset).  The tests check that both
routes give the same quartets and the same star lines; nothing in ``src/``
reads this module.
"""

from itertools import combinations

from tritree import Quartet, QuartetSystem, pairings
from tritree.checks import _star
from tritree.tree import _deepest


def quad_medians(lca):
    """Each 4-subset i < j < k < l of positions in combinations order, from a
    table of pairwise LCAs, with the index in quartets.pairings of the split it
    displays (None when all four triples share one median) and the median of
    ijk.  The medians of ijk, ijl and ikl decide the split."""
    n = len(lca)
    for i, j in combinations(range(n), 2):
        ri, rj = lca[i], lca[j]
        for k in range(j + 1, n):
            rk = lca[k]
            ijk = _deepest(ri[j], ri[k], rj[k])
            for l in range(k + 1, n):
                ijl, ikl = _deepest(ri[j], ri[l], rj[l]), _deepest(ri[k], ri[l], rk[l])
                side = (None if ijl == ikl else 0) if ijk == ijl else 1 if ijk == ikl else 2
                yield i, j, k, l, side, ijk


def displayed_quartets(tree):
    names = tree.taxa.names
    members = [
        Quartet(*pairings(names[i], names[j], names[k], names[l])[side])
        for i, j, k, l, side, _ in quad_medians(tree._lca_table())
        if side is not None
    ]
    return QuartetSystem(tree.taxa, members)


def unresolved_stars(tree, fail_fast):
    if tree.is_binary():
        return ()
    found = []
    for i, j, k, l, side, ijk in quad_medians(tree._lca_table()):
        if side is None:
            found.append(_star(tree.taxa, (i, j, k, l), tree.colors[ijk]))
            if fail_fast:
                break
    return tuple(found)
