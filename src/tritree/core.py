"""Taxa, symbol alphabets, and total symmetric ternary maps.

A ternary map assigns one symbol to every 3-subset of a taxon set.  Values are
stored under the sorted 3-subset, so symmetry in the three arguments holds by
construction.  Looking a value up with a repeated argument never touches the
store: it returns the ``NON_EVENT`` sentinel, which is deliberately not a
string and therefore can never collide with an alphabet symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Mapping

__all__ = [
    "NON_EVENT",
    "MapBuildError",
    "SymbolAlphabet",
    "TableFormatError",
    "TaxonSet",
    "TernaryMap",
    "UnknownTaxonError",
    "build_ternary",
]

# Characters that would break the text formats (tables, Newick, quartet lists).
_RESERVED_CHARS = frozenset("(),;:#")


class UnknownTaxonError(ValueError):
    """A lookup named a taxon that is not part of the object."""


class MapBuildError(ValueError):
    """The entries for a ternary map are incomplete or inconsistent."""


class TableFormatError(ValueError):
    """A triple-table text could not be parsed into a ternary map."""


class _NonEvent:
    """Sentinel value for argument triples with a repeated taxon."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "NON_EVENT"


NON_EVENT = _NonEvent()


def check_identifier(name: str, kind: str) -> None:
    """Reject names that could not survive the text formats."""
    if not isinstance(name, str) or not name:
        raise ValueError(f"{kind} must be a non-empty string, got {name!r}")
    if any(ch.isspace() or ch in _RESERVED_CHARS for ch in name):
        raise ValueError(
            f"{kind} {name!r} contains whitespace or one of the reserved characters {''.join(sorted(_RESERVED_CHARS))!r}"
        )


@dataclass(frozen=True)
class TaxonSet:
    """At least three distinct taxon names, kept in lexicographic order."""

    names: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.names))
        if len(set(ordered)) != len(ordered):
            dupes = sorted({n for n in ordered if list(ordered).count(n) > 1})
            raise ValueError(f"duplicate taxon names: {' '.join(dupes)}")
        if len(ordered) < 3:
            raise ValueError(f"a taxon set needs at least three taxa, got {len(ordered)}")
        for name in ordered:
            check_identifier(name, "taxon name")
        object.__setattr__(self, "names", ordered)
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(ordered)})

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def require(self, name: str) -> None:
        if name not in self._index:
            raise UnknownTaxonError(f"unknown taxon {name!r}")

    def index(self, name: str) -> int:
        """Position of a taxon in the sorted names."""
        self.require(name)
        return self._index[name]

    def triples(self) -> Iterator[tuple[str, str, str]]:
        """All 3-subsets in canonical (sorted) order."""
        return combinations(self.names, 3)

    def subsets(self, size: int) -> Iterator[tuple[str, ...]]:
        return combinations(self.names, size)


@dataclass(frozen=True)
class SymbolAlphabet:
    """A finite, non-empty set of symbols; NON_EVENT is never a member."""

    symbols: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", frozenset(self.symbols))
        if not self.symbols:
            raise ValueError("a symbol alphabet must not be empty")
        for sym in self.symbols:
            check_identifier(sym, "symbol")

    def __contains__(self, symbol: object) -> bool:
        return symbol in self.symbols

    def __len__(self) -> int:
        return len(self.symbols)

    def sorted(self) -> tuple[str, ...]:
        return tuple(sorted(self.symbols))


def _canonical_triple(triple: Iterable[str]) -> tuple[str, str, str]:
    a, b, c = sorted(triple)
    return (a, b, c)


class TernaryMap:
    """A total symmetric assignment of one symbol to every 3-subset of taxa.

    Two maps are equal when they have the same taxa and agree on every
    3-subset; the declared alphabet is carried along but does not take part
    in equality, so a map declared over a larger alphabet still equals the
    same values declared over the symbols actually used.

    Values come as a mapping or as (3-subset, symbol) pairs, with the taxa of
    each 3-subset in any order; build_ternary lists what is checked.
    """

    __slots__ = ("taxa", "alphabet", "_values", "_hash")

    def __init__(
        self,
        taxa: TaxonSet,
        alphabet: SymbolAlphabet,
        values: Mapping[tuple[str, ...], str] | Iterable[tuple[Iterable[str], str]],
    ) -> None:
        pairs = values.items() if isinstance(values, Mapping) else values
        known = taxa._index
        canon: dict[tuple[str, ...], str] = {}
        for triple, symbol in pairs:
            subset = tuple(triple)
            if len(subset) != 3:
                raise MapBuildError(f"entry {subset!r} does not name exactly three taxa")
            a, b, c = subset
            if a == b or a == c or b == c:
                raise MapBuildError(
                    f"3-subset with a repeated taxon: {' '.join(map(str, subset))}"
                )
            if a not in known or b not in known or c not in known:
                for t in subset:
                    taxa.require(t)
            key = (a, b, c) if a < b < c else tuple(sorted(subset))
            first = canon.setdefault(key, symbol)
            if first != symbol:
                raise MapBuildError(
                    f"conflicting values for {' '.join(key)}: {first!r} and {symbol!r}"
                )
        try:
            in_alphabet = set(canon.values()) <= alphabet.symbols
        except TypeError:  # an unhashable value is no symbol
            in_alphabet = False
        if not in_alphabet:  # find the first bad value, in entry order
            for key, symbol in canon.items():
                if symbol is NON_EVENT or not isinstance(symbol, str):
                    raise MapBuildError(
                        f"value for {'/'.join(key)} must be an alphabet symbol, got {symbol!r}"
                    )
                if symbol not in alphabet:
                    raise MapBuildError(f"symbol {symbol!r} is not in the declared alphabet")
        if len(canon) != comb(len(taxa), 3):
            missing = [tri for tri in taxa.triples() if tri not in canon]
            shown = ", ".join(" ".join(tri) for tri in missing[:5])
            more = "" if len(missing) <= 5 else f" (and {len(missing) - 5} more)"
            raise MapBuildError(f"missing 3-subsets: {shown}{more}")
        self.taxa = taxa
        self.alphabet = alphabet
        self._values = canon
        self._hash: int | None = None

    # -- lookups ---------------------------------------------------------

    def get(self, x: str, y: str, z: str) -> str | _NonEvent:
        """Value on (x, y, z); NON_EVENT when any two arguments coincide."""
        for t in (x, y, z):
            self.taxa.require(t)
        if x == y or y == z or x == z:
            return NON_EVENT
        return self._values[_canonical_triple((x, y, z))]

    def triple_value(self, triple: Iterable[str]) -> str:
        """Fast path for three distinct known taxa; no argument checking."""
        return self._values[_canonical_triple(triple)]

    def triples(self) -> Iterator[tuple[str, str, str]]:
        return self.taxa.triples()

    def entries(self) -> tuple[tuple[tuple[str, str, str], str], ...]:
        """All (3-subset, symbol) pairs in canonical order."""
        return tuple((tri, self._values[tri]) for tri in self.taxa.triples())

    def used_symbols(self) -> frozenset[str]:
        return frozenset(self._values.values())

    # -- derived maps ----------------------------------------------------

    def restrict(self, keep: Iterable[str]) -> "TernaryMap":
        """The same map on a subset of at least three taxa."""
        kept = sorted(set(keep))
        if len(kept) < 3:
            raise ValueError(f"a restriction needs at least three taxa, got {len(kept)}")
        for t in kept:
            self.taxa.require(t)
        sub = TaxonSet(tuple(kept))
        values = {tri: self._values[tri] for tri in sub.triples()}
        return TernaryMap(sub, self.alphabet, values)

    # -- equality --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TernaryMap):
            return NotImplemented
        return self.taxa.names == other.taxa.names and self._values == other._values

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.taxa.names, tuple(sorted(self._values.items()))))
        return self._hash

    def __repr__(self) -> str:
        return (
            f"TernaryMap(n={len(self.taxa)}, symbols={','.join(sorted(self.used_symbols()))})"
        )

    # -- triple-table text format ----------------------------------------
    #
    #   taxa: x1 x2 y z1 z2
    #   symbols: a b c
    #   x1 x2 y a        <- one line per 3-subset, taxa in any order
    #
    # '#' starts a comment, blank lines are skipped, encoding is UTF-8 with
    # '\n' line ends.  Taxon names starting with '@' are reserved for the
    # composite taxa that reconstruction introduces.

    def to_table_text(self) -> str:
        lines = [
            "taxa: " + " ".join(self.taxa.names),
            "symbols: " + " ".join(self.alphabet.sorted()),
        ]
        for tri in self.taxa.triples():
            lines.append(" ".join(tri) + " " + self._values[tri])
        return "\n".join(lines) + "\n"

    @classmethod
    def from_table_text(cls, text: str) -> "TernaryMap":
        taxa_names: list[str] | None = None
        symbol_names: list[str] | None = None
        rows: list[tuple[tuple[str, str, str], str]] = []
        for lineno, raw in enumerate(text.split("\n"), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if tokens[0] == "taxa:":
                if taxa_names is not None:
                    raise TableFormatError(f"line {lineno}: repeated 'taxa:' header")
                taxa_names = tokens[1:]
                continue
            if tokens[0] == "symbols:":
                if symbol_names is not None:
                    raise TableFormatError(f"line {lineno}: repeated 'symbols:' header")
                symbol_names = tokens[1:]
                continue
            if taxa_names is None or symbol_names is None:
                raise TableFormatError(
                    f"line {lineno}: 'taxa:' and 'symbols:' headers must precede triple lines"
                )
            if len(tokens) != 4:
                raise TableFormatError(
                    f"line {lineno}: expected three taxa and one symbol, got {len(tokens)} tokens"
                )
            rows.append(((tokens[0], tokens[1], tokens[2]), tokens[3]))
        if taxa_names is None:
            raise TableFormatError("missing 'taxa:' header")
        if symbol_names is None:
            raise TableFormatError("missing 'symbols:' header")
        for name in taxa_names:
            if name.startswith("@"):
                raise TableFormatError(
                    f"taxon name {name!r} is reserved ('@' prefixes composite taxa)"
                )
        try:
            return build_ternary(TaxonSet(tuple(taxa_names)),
                                 SymbolAlphabet(frozenset(symbol_names)), rows)
        except (MapBuildError, UnknownTaxonError, ValueError) as exc:
            raise TableFormatError(str(exc)) from exc


def build_ternary(
    taxa: TaxonSet,
    alphabet: SymbolAlphabet,
    entries: Iterable[tuple[Iterable[str], str]] | Mapping[tuple[str, ...], str],
) -> TernaryMap:
    """Build a TernaryMap from (3-subset, symbol) entries.

    Entries may list each 3-subset with its taxa in any order.  Duplicates
    with the same value are tolerated; conflicting duplicates, symbols
    outside the alphabet, unknown taxa, and missing 3-subsets are errors.
    """
    return TernaryMap(taxa, alphabet, entries)
