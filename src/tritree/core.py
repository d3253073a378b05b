"""Taxa, symbol alphabets, and total symmetric ternary maps.

A ternary map assigns one symbol to every 3-subset of a taxon set.  It keeps
one small integer code per 3-subset in one array, in ``combinations`` order of
the sorted taxa, so symmetry holds by construction and names appear only in
entries, lookups, the table text and diagnostics.  Only this module knows that
layout; others read it through _rank, _code, _row, _quads and _mismatches.
Looking a value up with a repeated argument never touches the store: it
returns the ``NON_EVENT`` sentinel, which is not a string and so can never be
an alphabet symbol.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import combinations, islice, repeat
from math import comb
from typing import Iterable, Iterator, Mapping, Sequence

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


def _require_distinct(names: Sequence[str], error: type[ValueError] = ValueError) -> None:
    """Raise error for the first name that is no string, else naming, once
    each and sorted, every name listed twice or more."""
    for name in filter(lambda name: not isinstance(name, str), names):
        raise error(f"taxon name must be a non-empty string, got {name!r}")
    if len(set(names)) != len(names):
        dupes = sorted(name for name, count in Counter(names).items() if count > 1)
        raise error(f"duplicate taxon names: {' '.join(dupes)}")


@dataclass(frozen=True)
class TaxonSet:
    """At least three distinct taxon names, kept in lexicographic order; the
    3-subset at positions i < j < k is number F[i] + G[j] + k of triples(),
    with (F, G) = _ranks by the combinatorial number system (TAOCP 7.2.1.3)."""

    names: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _ranks: tuple[list[int], list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _require_distinct(self.names)  # first, as sorting would raise a TypeError on a non-string
        ordered = tuple(sorted(self.names))
        if len(ordered) < 3:
            raise ValueError(f"a taxon set needs at least three taxa, got {len(ordered)}")
        for name in ordered:
            check_identifier(name, "taxon name")
        object.__setattr__(self, "names", ordered)
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(ordered)})
        n, total = len(ordered), comb(len(ordered), 3)
        first = [total - comb(n - i, 3) + comb(n - i - 1, 2) for i in range(n)]
        object.__setattr__(self, "_ranks", (first, [-comb(n - j, 2) - j - 1 for j in range(n)]))

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def require(self, *names: str) -> None:
        """Raise UnknownTaxonError for the first name that is not a taxon here."""
        for name in names:
            if name not in self._index:
                raise UnknownTaxonError(f"unknown taxon {name!r}")

    def index(self, name: str) -> int:
        """Position of a taxon in the sorted names."""
        self.require(name)
        return self._index[name]

    def _rank(self, a: str, b: str, c: str) -> int:
        """The number of the 3-subset of three distinct known taxa in triples()."""
        index = self._index
        i, j, k = index[a], index[b], index[c]
        if i > j:
            i, j = j, i
        if j > k:
            j, k = k, j
            if i > j:
                i, j = j, i
        first, second = self._ranks
        return first[i] + second[j] + k

    def _pair(self, u: int, v: int) -> int:
        """The number of the pair of positions u < v in combinations order."""
        return u * (2 * len(self.names) - u - 3) // 2 + v - 1

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


def _checked_values(taxa: TaxonSet, alphabet: SymbolAlphabet, rows: Iterable, count: int) -> list:
    """The value of each 3-subset in combinations order, from count rows (a, b, c, symbol).

    Complaints come in this order: a wrong arity, a repeated or unknown taxon,
    or a second value for a 3-subset, at the first row with one; then the
    first value, in the order 3-subsets first appear, that is no alphabet
    symbol; then the missing 3-subsets.  Rows too few to fill every 3-subset
    go in a dict, so a table that is mostly header costs what it holds.
    """
    total = comb(len(taxa), 3)
    unset = object()
    store = [unset] * total if count >= total else defaultdict(lambda: unset)
    symbols = alphabet.symbols
    bad = None  # the first row to give a 3-subset a value that is no symbol
    filled = 0
    for row in rows:
        if len(row) != 4:
            raise MapBuildError(f"entry {tuple(row[:-1])!r} does not name exactly three taxa")
        a, b, c, symbol = row
        if a == b or a == c or b == c:
            raise MapBuildError(f"3-subset with a repeated taxon: {a} {b} {c}")
        try:
            r = taxa._rank(a, b, c)
        except KeyError:
            taxa.require(a, b, c)
        first = store[r]
        if first is unset:
            store[r] = symbol
            filled += 1
            if bad is None and not (isinstance(symbol, str) and symbol in symbols):
                bad = row
        elif first != symbol:
            raise MapBuildError(
                f"conflicting values for {' '.join(sorted(row[:3]))}: {first!r} and {symbol!r}"
            )
    if bad is not None:
        *subset, symbol = bad
        if not isinstance(symbol, str):
            raise MapBuildError(
                f"value for {'/'.join(sorted(subset))} must be an alphabet symbol, got {symbol!r}"
            )
        raise MapBuildError(f"symbol {symbol!r} is not in the declared alphabet")
    if filled != total:
        missing = (tri for r, tri in enumerate(taxa.triples()) if store[r] is unset)
        shown = ", ".join(" ".join(tri) for tri in islice(missing, 5))
        more = "" if total - filled <= 5 else f" (and {total - filled - 5} more)"
        raise MapBuildError(f"missing 3-subsets: {shown}{more}")
    return store


def _table_header(taxa: TaxonSet, alphabet: SymbolAlphabet) -> str:
    return f"taxa: {' '.join(taxa.names)}\nsymbols: {' '.join(alphabet.sorted())}\n"


def _table_lines(
    words: list[str], i: int, ends: Sequence[str] | Mapping[str, str], codes: Iterator
) -> str:
    """The table lines of the 3-subsets i < j < k of positions, in combinations
    order: the words (names and a space) at i, j and k, then ends[c] (a symbol
    and a newline) for the next c of codes."""
    n, lines = len(words), []
    for j in range(i + 1, n - 1):
        head = words[i] + words[j]
        lines += [head + words[k] + ends[c] for k, c in zip(range(j + 1, n), codes)]
    return "".join(lines)


class TernaryMap:
    """A total symmetric assignment of one symbol to every 3-subset of taxa.

    The values are one array of small integer codes in combinations order,
    each the index of its symbol among the sorted symbols the map uses.
    Two maps are equal when they have the same taxa and agree on every
    3-subset; the declared alphabet is carried along but does not take part
    in equality, so a map declared over a larger alphabet still equals the
    same values declared over the symbols actually used.

    Values come as a mapping or as (3-subset, symbol) pairs, with the taxa of
    each 3-subset in any order; build_ternary lists what is checked.
    """

    __slots__ = ("taxa", "alphabet", "_symbols", "_codes", "_hash")

    def __init__(
        self,
        taxa: TaxonSet,
        alphabet: SymbolAlphabet,
        values: Mapping[tuple[str, ...], str] | Iterable[tuple[Iterable[str], str]],
    ) -> None:
        pairs = values.items() if isinstance(values, Mapping) else values
        rows = [(*triple, symbol) for triple, symbol in pairs]
        self._set(taxa, alphabet, _checked_values(taxa, alphabet, rows, len(rows)))

    @classmethod
    def _of(cls, taxa: TaxonSet, alphabet: SymbolAlphabet, values: Iterable[str]) -> "TernaryMap":
        """The map with these values, trusted and given in combinations order."""
        tmap = object.__new__(cls)
        tmap._set(taxa, alphabet, values)
        return tmap

    def _set(self, taxa: TaxonSet, alphabet: SymbolAlphabet, values: Iterable[str]) -> None:
        values = list(values)
        symbols = sorted(set(values))
        code_of = {symbol: c for c, symbol in enumerate(symbols)}
        typecode = "B" if len(symbols) <= 1 << 8 else "H" if len(symbols) <= 1 << 16 else "I"
        self.taxa, self.alphabet, self._symbols = taxa, alphabet, tuple(symbols)
        self._codes = array(typecode, map(code_of.__getitem__, values))
        self._hash: int | None = None

    # -- lookups ---------------------------------------------------------

    def get(self, x: str, y: str, z: str) -> str | _NonEvent:
        """Value on (x, y, z); NON_EVENT when any two arguments coincide."""
        self.taxa.require(x, y, z)
        if x == y or y == z or x == z:
            return NON_EVENT
        return self.triple_value((x, y, z))

    def triple_value(self, triple: Iterable[str]) -> str:
        """Fast path for three distinct known taxa; no argument checking."""
        return self._symbols[self._codes[self.taxa._rank(*triple)]]

    def _code(self, i: int, j: int, k: int) -> int:
        """The code of the 3-subset at positions i < j < k."""
        first, second = self.taxa._ranks
        return self._codes[first[i] + second[j] + k]

    def _mismatches(self, other: "TernaryMap") -> list[tuple[int, int, int]]:
        """The positions i < j < k, in combinations order, of the 3-subsets on
        which a map of the same taxa differs from this one."""
        mine, theirs = self._symbols, other._symbols
        codes = zip(combinations(range(len(self.taxa)), 3), self._codes, other._codes)
        return [tri for tri, a, b in codes if mine[a] != theirs[b]]

    def _row(self, x: int) -> list[int]:
        """The codes of the 3-subsets {x, u, v}, one per pair u < v of positions
        numbered by TaxonSet._pair, with -1 where x is u or v."""
        codes, (first, second), n = self._codes, self.taxa._ranks, len(self.taxa)
        row: list[int] = []
        for u in range(x):
            row += [codes[first[u] + second[v] + x] for v in range(u + 1, x)] + [-1]
            row += codes[first[u] + second[x] + x + 1 : first[u] + second[x] + n]
        row += [-1] * (n - 1 - x)
        # The 3-subsets x < u < v open the last C(n - x, 3), those of positions x and up.
        return row + codes[len(codes) - comb(n - x, 3) : len(codes) - comb(n - x - 1, 3)].tolist()

    def _quads(self) -> Iterator[tuple[int, ...]]:
        """(i, j, k, l, ijk, ijl, ikl, jkl) for every 4-subset of positions
        i < j < k < l in combinations order, with the codes of its four 3-subsets."""
        codes, (first, second), n = self._codes, self.taxa._ranks, len(self.taxa)
        for i, j, k in combinations(range(n - 1), 3):
            ij, ik, jk = first[i] + second[j], first[i] + second[k], first[j] + second[k]
            yield from zip(
                repeat(i), repeat(j), repeat(k), range(k + 1, n), repeat(codes[ij + k]),
                codes[ij + k + 1 : ij + n], codes[ik + k + 1 : ik + n], codes[jk + k + 1 : jk + n],
            )

    def triples(self) -> Iterator[tuple[str, str, str]]:
        return self.taxa.triples()

    def entries(self) -> tuple[tuple[tuple[str, str, str], str], ...]:
        """All (3-subset, symbol) pairs in canonical order."""
        return tuple(zip(self.taxa.triples(), map(self._symbols.__getitem__, self._codes)))

    def used_symbols(self) -> frozenset[str]:
        return frozenset(self._symbols)

    # -- derived maps ----------------------------------------------------

    def restrict(self, keep: Iterable[str]) -> "TernaryMap":
        """The same map on a subset of at least three taxa."""
        kept = sorted(set(keep))
        if len(kept) < 3:
            raise ValueError(f"a restriction needs at least three taxa, got {len(kept)}")
        self.taxa.require(*kept)
        values = map(self.triple_value, combinations(kept, 3))
        return TernaryMap._of(TaxonSet(tuple(kept)), self.alphabet, values)

    # -- equality --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TernaryMap):
            return NotImplemented
        return (self.taxa.names, self._symbols, self._codes) == (
            other.taxa.names, other._symbols, other._codes
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.taxa.names, self._symbols, self._codes.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        return f"TernaryMap(n={len(self.taxa)}, symbols={','.join(self._symbols)})"

    # -- triple-table text format ----------------------------------------
    #
    #   taxa: x1 x2 y z1 z2
    #   symbols: a b c
    #   x1 x2 y a        <- one line per 3-subset, taxa in any order
    #
    # '#' starts a comment, blank lines are skipped, encoding is UTF-8 with
    # '\n' line ends.  This reader and parse_newick refuse taxon names starting
    # with '@', the prefix of reconstruction's composite taxa; library maps may use it.

    def to_table_text(self) -> str:
        words = [name + " " for name in self.taxa.names]
        ends, codes = [symbol + "\n" for symbol in self._symbols], iter(self._codes)
        chunks = [_table_lines(words, i, ends, codes) for i in range(len(words) - 2)]
        return "".join([_table_header(self.taxa, self.alphabet), *chunks])

    @classmethod
    def _from_canonical_text(cls, text: str) -> "TernaryMap | None":
        """The map of a text exactly as to_table_text writes it, else None: the
        headers fix its length up to the symbols' lengths, and each smallest
        taxon's block must hold one line per 3-subset (a table cut short renders
        to itself) and equal to_table_text's lines for its last words."""
        first = text.find("\n") + 1
        names = text[6 : first - 1].split(" ")
        symbols = text[first + 9 : text.find("\n", first)].split(" ")
        try:
            taxa, alphabet = TaxonSet(tuple(names)), SymbolAlphabet(frozenset(symbols))
        except ValueError:
            return None
        n, header = len(names), _table_header(taxa, alphabet)
        words, ends = [name + " " for name in taxa.names], {s: s + "\n" for s in symbols}
        size = len(header) + comb(n - 1, 2) * sum(map(len, words))
        lengths = sorted(map(len, ends.values()))
        if not size + comb(n, 3) * lengths[0] <= len(text) <= size + comb(n, 3) * lengths[-1]:
            return None
        if not text.startswith(header) or any(name.startswith("@") for name in names):
            return None
        pos, values = len(header), []
        for i in range(n - 2):
            end = text.find("\n" + words[i + 1], pos) + 1 or len(text)  # where i + 1's lines begin
            block = text[pos:end]
            if block.count("\n") != comb(n - 1 - i, 2):
                return None
            last = [line.rpartition(" ")[2] for line in block.split("\n")]
            if last.pop() or not alphabet.symbols.issuperset(last):
                return None
            if _table_lines(words, i, ends, iter(last)) != block:
                return None
            values += last
            pos = end
        return cls._of(taxa, alphabet, values) if pos == len(text) else None

    @classmethod
    def from_table_text(cls, text: str) -> "TernaryMap":
        tmap = cls._from_canonical_text(text)
        if tmap is not None:
            return tmap
        headers: dict[str, list[str]] = {}
        # The four tokens of every triple line, in one flat list: a list per
        # line would leave the garbage collector a container per triple to walk.
        flat: list[str] = []
        for lineno, raw in enumerate(text.split("\n"), start=1):
            tokens = raw.split("#", 1)[0].split()
            if not tokens:
                continue
            if tokens[0] in ("taxa:", "symbols:"):
                if tokens[0] in headers:
                    raise TableFormatError(f"line {lineno}: repeated '{tokens[0]}' header")
                headers[tokens[0]] = tokens[1:]
            elif len(headers) < 2:
                raise TableFormatError(
                    f"line {lineno}: 'taxa:' and 'symbols:' headers must precede triple lines"
                )
            elif len(tokens) != 4:
                raise TableFormatError(
                    f"line {lineno}: expected three taxa and one symbol, got {len(tokens)} tokens"
                )
            else:
                flat += tokens
        for header in ("taxa:", "symbols:"):
            if header not in headers:
                raise TableFormatError(f"missing '{header}' header")
        for name in headers["taxa:"]:
            if name.startswith("@"):
                raise TableFormatError(
                    f"taxon name {name!r} is reserved ('@' prefixes composite taxa)"
                )
        try:
            taxa = TaxonSet(tuple(headers["taxa:"]))
            alphabet = SymbolAlphabet(frozenset(headers["symbols:"]))
            values = _checked_values(taxa, alphabet, zip(*[iter(flat)] * 4), len(flat) // 4)
        except ValueError as exc:
            raise TableFormatError(str(exc)) from exc
        return cls._of(taxa, alphabet, values)


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
