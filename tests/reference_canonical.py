"""Frozen reference copy of the tuple canonical code, for the tests only.

This is the body ``tree.canonical_code`` had before it read the
sorted-children Newick text of ``write_newick``: a second post-order walk,
rooted at the leaf of the smallest taxon, that marks leaves ``"0leaf"`` and
interior vertices ``"1int"`` (with ``":color"`` when colored) and closes each
child list with ``")"``.  The tests check that the two codes split trees into
the same isomorphism classes; nothing in ``src/`` reads this module.
"""

from itertools import chain

from tritree.tree import _breadth_first


def canonical_code(adj, leaf_names, colors=None):
    root_leaf = min(leaf_names, key=leaf_names.__getitem__)
    (neighbor,) = tuple(adj[root_leaf])
    order, parent = _breadth_first(adj, root_leaf)
    code = {}
    for v in reversed(order):
        if v in leaf_names:
            code[v] = ("0leaf", leaf_names[v])
            continue
        mark = "1int" if colors is None else "1int:" + colors[v]
        kids = sorted(code.pop(u) for u in adj[v] if u != parent[v])
        code[v] = (mark, *chain.from_iterable(kids), ")")
    return (leaf_names[root_leaf], *code[neighbor])
