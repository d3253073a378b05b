"""Command line interface.

Subcommands: encode, verify, reconstruct, quartets, check-binary, selftest.
stdout carries data, stderr carries diagnostics, and "-" names stdin.  Exit
codes: 0 success, 1 semantic failure (not a metric, not binary), 2 invalid
tree or usage, 3 unreadable input (file errors, format errors).
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from itertools import product
from typing import Callable, Iterable

from .checks import _near_encoding, _subset_lines, verify_metric
from .core import (
    SymbolAlphabet,
    TableFormatError,
    TaxonSet,
    TernaryMap,
    build_ternary,
)
from .oracle import enumerate_colorings, enumerate_trees, two_cycle_map
from .quartets import _scan_quartets, _text_chunks
from .reconstruct import NotAMetricError, _certify, reconstruct_tree
from .tree import (
    NewickParseError,
    TreeValidationError,
    parse_newick,
    to_dot,
    trees_isomorphic,
    write_newick,
)

__all__ = ["build_parser", "main", "run"]


def _read_text(path: str) -> str:
    if path != "-":
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    if not hasattr(sys.stdin, "buffer"):  # a text stream put in place of stdin
        return sys.stdin.read()
    # Strict UTF-8 as for files, whatever the locale, with text mode's newlines.
    text = sys.stdin.buffer.read().decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _write_text(path: str | None, chunks: Iterable[str]) -> None:
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(chunks)


def _cmd_encode(args: argparse.Namespace) -> int:
    tree = parse_newick(_read_text(args.tree))
    if args.require_discriminating and not tree.is_discriminating():
        print(
            "error: the tree is not discriminating "
            "(two adjacent interior vertices share a color)",
            file=sys.stderr,
        )
        return 2
    _write_text(args.output, [tree.encode().to_table_text()])
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    tmap = TernaryMap.from_table_text(_read_text(args.table))
    report = verify_metric(
        tmap,
        include_star=args.star,
        strict_star=args.strict_star,
        fail_fast=args.fail_fast,
    )
    sys.stdout.write(report.to_text())
    print(f"metric: {'yes' if report.is_metric else 'no'}", file=sys.stderr)
    if args.star:
        status = "pass" if not report.star_violations else "fail"
        print(f"resolver check: {status}", file=sys.stderr)
    return 0 if report.is_metric else 1


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    tmap = TernaryMap.from_table_text(_read_text(args.table))

    def trace(step) -> None:
        print(
            f"CONTRACT {' '.join(step.members)} -> {step.new_taxon} COLOR {step.symbol}",
            file=sys.stderr,
        )

    tree = reconstruct_tree(tmap, on_step=trace if args.trace else None)
    text = to_dot(tree) if args.dot else write_newick(tree) + "\n"
    _write_text(args.output, [text])
    return 0


def _cmd_quartets(args: argparse.Namespace) -> int:
    tmap = TernaryMap.from_table_text(_read_text(args.table))
    tree, built = _certify(tmap)
    violations = _subset_lines(tmap, _near_encoding(tmap, built), (4,)) if tree is None else ()
    if violations:
        for violation in violations:
            print(violation.line, file=sys.stderr)
        print(
            "error: the map fails the 4-subset check, so its quartets are undefined",
            file=sys.stderr,
        )
        return 1
    positions = _scan_quartets(tmap) if tree is None else tree._quartet_positions()
    _write_text(args.output, _text_chunks(tmap.taxa.names, positions))
    return 0


def _cmd_check_binary(args: argparse.Namespace) -> int:
    tmap = TernaryMap.from_table_text(_read_text(args.table))
    report = verify_metric(tmap, include_star=True, strict_star=args.strict_star)
    for violation in report.violations + report.star_violations:
        print(violation.line, file=sys.stderr)
    ok = report.is_metric and not report.star_violations
    print("binary: yes" if ok else "binary: no")
    return 0 if ok else 1


def _cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        print(("ok " if ok else "FAIL ") + label)
        if not ok:
            failures += 1

    census = [len(enumerate_trees(n).topologies) for n in (3, 4, 5)]
    check("topology census for 3,4,5 leaves is 1,4,26", census == [1, 4, 26])
    check("binary topologies on 5 leaves number 15", len(enumerate_trees(5).binary) == 15)

    roundtrip = True
    for topology in enumerate_trees(4).topologies:
        for coloring in enumerate_colorings(topology, ("p", "q")):
            tree = topology.with_colors(coloring)
            roundtrip = roundtrip and trees_isomorphic(reconstruct_tree(tree.encode()), tree)
    check("encode then reconstruct is the identity on 4 leaves", roundtrip)

    taxa = TaxonSet(("t1", "t2", "t3", "t4"))
    alphabet = SymbolAlphabet(frozenset(("p", "q")))
    triples = tuple(taxa.triples())
    accepted = 0
    for values in product(("p", "q"), repeat=4):
        tmap = build_ternary(taxa, alphabet, dict(zip(triples, values)))
        if verify_metric(tmap).is_metric:
            accepted += 1
    check("accepted two-symbol maps on 4 taxa number 8", accepted == 8)

    cycles = two_cycle_map()
    check("the two-5-cycle map is rejected", not verify_metric(cycles).is_metric)
    refused = False
    try:
        reconstruct_tree(cycles)
    except NotAMetricError:
        refused = True
    check("the two-5-cycle map reconstructs to nothing", refused)
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tritree",
        description="Encode colored trees as ternary maps, check maps, and rebuild trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    encode = sub.add_parser("encode", help="tree in Newick form -> triple table")
    encode.add_argument("tree", help="Newick file, or - for stdin")
    encode.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    encode.add_argument(
        "--require-discriminating",
        action="store_true",
        help="reject trees with two adjacent interior vertices of one color",
    )
    encode.set_defaults(handler=_cmd_encode)

    verify = sub.add_parser("verify", help="check a triple table against the metric conditions")
    verify.add_argument("table", help="triple table file, or - for stdin")
    verify.add_argument("--star", action="store_true", help="also run the resolver check")
    verify.add_argument(
        "--strict-star",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="resolver check needs the exact resolver pattern (default on)",
    )
    verify.add_argument("--fail-fast", action="store_true", help="stop at the first violation")
    verify.set_defaults(handler=_cmd_verify)

    reconstruct = sub.add_parser("reconstruct", help="triple table -> tree in Newick form")
    reconstruct.add_argument("table", help="triple table file, or - for stdin")
    reconstruct.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    reconstruct.add_argument("--trace", action="store_true", help="log contractions to stderr")
    reconstruct.add_argument("--dot", action="store_true", help="emit Graphviz instead of Newick")
    reconstruct.set_defaults(handler=_cmd_reconstruct)

    quartets = sub.add_parser("quartets", help="triple table -> induced quartet system")
    quartets.add_argument("table", help="triple table file, or - for stdin")
    quartets.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    quartets.set_defaults(handler=_cmd_quartets)

    binary = sub.add_parser(
        "check-binary", help="decide whether a binary tree encodes the table"
    )
    binary.add_argument("table", help="triple table file, or - for stdin")
    binary.add_argument(
        "--strict-star",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="resolver check needs the exact resolver pattern (default on)",
    )
    binary.set_defaults(handler=_cmd_check_binary)

    selftest = sub.add_parser("selftest", help="run built-in consistency checks")
    selftest.set_defaults(handler=_cmd_selftest)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handler: Callable[[argparse.Namespace], int] = args.handler
    try:
        return handler(args)
    except (TableFormatError, NewickParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TreeValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotAMetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main(sys.argv[1:]))
