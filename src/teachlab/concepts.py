"""Concepts over a finite domain and the concept-class file codec.

Instances are numbered 1..n.  A concept is a 0/1 labeling of the instances,
held as an n-bit integer with bit i-1 storing the label of instance i.  A
concept class stores n and an ordered, duplicate-free tuple of masks, and
builds Concept views of them on request.  Keeping labelings in machine words
turns agreement and difference queries into single integer operations, and
those two queries are the inner loop of every search in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import FormatError

__all__ = [
    "Concept",
    "ConceptClass",
    "agrees_on",
    "complement",
    "difference_set",
    "instances_to_mask",
    "mask_to_instances",
    "parse_class",
    "serialize_class",
]


def instances_to_mask(instances: Iterable[int], n: int) -> int:
    """Pack a set of 1-based instances into an n-bit mask."""
    mask = 0
    for x in instances:
        if not 1 <= x <= n:
            raise ValueError(f"instance {x} outside domain 1..{n}")
        mask |= 1 << (x - 1)
    return mask


def mask_to_instances(mask: int) -> frozenset[int]:
    """Unpack an instance mask into the 1-based instances it contains."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return frozenset(out)


@dataclass(frozen=True)
class Concept:
    """A 0/1 labeling of the domain [n], packed into an integer mask."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("domain size must be at least 1")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError("membership mask does not fit the domain")

    @classmethod
    def from_string(cls, text: str) -> Concept:
        """Parse a bitstring; character j (1-based, from the left) labels instance j."""
        return cls(len(text), _decode_bits(text))

    def label(self, x: int) -> int:
        if not 1 <= x <= self.n:
            raise ValueError(f"instance {x} outside domain 1..{self.n}")
        return (self.bits >> (x - 1)) & 1

    def members(self) -> frozenset[int]:
        return mask_to_instances(self.bits)

    def to_string(self) -> str:
        """The inverse of from_string: the mask's n binary digits, least significant first."""
        return _encode_bits(self.bits, self.n)

    def __contains__(self, x: int) -> bool:
        return 1 <= x <= self.n and (self.bits >> (x - 1)) & 1 == 1


@dataclass(frozen=True)
class ConceptClass:
    """An ordered, duplicate-free tuple of concept masks over the domain [n].

    The masks are the class; concepts, iteration and indexing build Concept
    views of them on request, so read those once, not per use.
    """

    n: int
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("domain size must be at least 1")
        if self.masks and (min(self.masks) < 0 or max(self.masks) >> self.n):
            raise ValueError("membership mask does not fit the domain")
        if len(set(self.masks)) != len(self.masks):
            raise ValueError("concept class contains duplicate concepts")

    @classmethod
    def from_masks(cls, masks: Iterable[int], n: int) -> ConceptClass:
        return cls(n, tuple(masks))

    @property
    def concepts(self) -> tuple[Concept, ...]:
        return tuple(self)

    def index_of(self, c: Concept) -> int:
        if c not in self:
            raise ValueError("concept not in class")
        return self.masks.index(c.bits)

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[Concept]:
        n = self.n
        return (Concept(n, b) for b in self.masks)

    def __getitem__(self, i: int) -> Concept:
        return Concept(self.n, self.masks[i])

    def __contains__(self, c: object) -> bool:
        return isinstance(c, Concept) and c.n == self.n and c.bits in self.masks


def _require_same_domain(c: Concept, c2: Concept) -> None:
    if c.n != c2.n:
        raise ValueError("concepts are defined over different domain sizes")


def agrees_on(c: Concept, c2: Concept, s: Iterable[int]) -> bool:
    """True iff the two concepts assign equal labels to every instance in s."""
    _require_same_domain(c, c2)
    return (c.bits ^ c2.bits) & instances_to_mask(s, c.n) == 0


def difference_set(c: Concept, c2: Concept) -> frozenset[int]:
    """The instances on which the two concepts disagree; empty iff they are equal."""
    _require_same_domain(c, c2)
    return mask_to_instances(c.bits ^ c2.bits)


def complement(c: Concept) -> Concept:
    """Flip every label: the concept [n] minus C."""
    return Concept(c.n, c.bits ^ ((1 << c.n) - 1))


_BLOCK = 1 << 16  # the characters split into lines at once, rounded up to the next "\n"


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped line) for each line that is neither blank nor a # comment.

    The lines are those of text.splitlines(), split one block at a time, so
    that at most one block's lines exist at once.  Each block ends just
    after a "\n", which no line boundary straddles ("\r\n" ends there too).
    """
    lineno, start = 0, 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK) + 1 or len(text)
        for lineno, raw in enumerate(text[start:end].splitlines(), start=lineno + 1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, line
        start = end


def _shown(line: str) -> str:
    """line's repr for an error message, cut past 40 characters to its start and its length."""
    return repr(line) if len(line) <= 40 else f"{line[:40]!r} (first 40 of {len(line)} characters)"


def _read_header(lines: Iterator[tuple[int, str]], *keys: str) -> list[int]:
    """Consume the header line ``k1=<int> k2=<int> ...``.

    The first value is the domain size n >= 1; every later one lies in 0..n.
    """
    spec = " ".join(f"{key}=<int>" for key in keys)
    first = next(lines, None)
    if first is None:
        raise FormatError(f"missing {spec!r} header line")
    lineno, line = first
    parts = line.split()
    if len(parts) != len(keys) or not all(p.startswith(f"{key}=") for p, key in zip(parts, keys)):
        raise FormatError(f"line {lineno}: expected header {spec!r}")
    try:
        values = [int(p[len(key) + 1:]) for p, key in zip(parts, keys)]
    except ValueError:
        raise FormatError(f"line {lineno}: malformed header {_shown(line)}") from None
    n = values[0]
    if n < 1 or not all(0 <= v <= n for v in values[1:]):
        raise FormatError(f"line {lineno}: header {_shown(line)} out of range")
    return values


_NON_BITS = str.maketrans("", "", "01")


def _decode_bits(text: str, n: int | None = None, where: str = "") -> int:
    """Mask of a 0/1 string whose j-th character (1-based, from the left) labels instance j.

    Character j is bit j-1, so the string is the mask's binary digits
    least significant first.  With n given the string must have length n;
    where prefixes every error message (a line reference).
    """
    if n is not None and len(text) != n:
        raise FormatError(f"{where}expected {n} characters, got {len(text)}")
    if not text:
        raise FormatError(f"{where}empty concept string")
    bad = text.translate(_NON_BITS)
    if bad:
        raise FormatError(f"{where}invalid character {bad[0]!r} in concept string")
    return int(text[::-1], 2)


def _encode_bits(bits: int, n: int) -> str:
    """The inverse of _decode_bits: the mask's n binary digits, least significant first."""
    return format(bits, f"0{n}b")[::-1]


def _parse_instances(text: str, n: int, where: str) -> frozenset[int]:
    """Whitespace-separated instances, each an integer in 1..n, none repeated."""
    try:
        inst = [int(tok) for tok in text.split()]
    except ValueError:
        raise FormatError(f"{where}instances must be integers") from None
    members = frozenset(inst)
    if len(members) != len(inst):
        raise FormatError(f"{where}repeated instance")
    for x in inst:
        if not 1 <= x <= n:
            raise FormatError(f"{where}instance {x} outside domain 1..{n}")
    return members


def parse_class(text: str) -> ConceptClass:
    """Parse the class file format.

    The first content line is the header ``n=<int>``; every following content
    line is a bitstring of length n whose j-th character (from the left)
    labels instance j.  Lines starting with ``#`` and blank lines are skipped.
    """
    lines = _content_lines(text)
    (n,) = _read_header(lines, "n")
    masks: list[int] = []
    seen: set[int] = set()
    for lineno, line in lines:
        bits = _decode_bits(line, n, f"line {lineno}: ")
        if bits in seen:
            raise FormatError(f"line {lineno}: duplicate concept {_shown(line)}")
        seen.add(bits)
        masks.append(bits)
    if not masks:
        raise FormatError("class file contains no concepts")
    return ConceptClass.from_masks(masks, n)


def serialize_class(k: ConceptClass) -> str:
    """Render a class in the file format; parse_class(serialize_class(k)) == k."""
    n = k.n
    lines = [f"n={n}"]
    lines.extend(_encode_bits(b, n) for b in k.masks)
    return "\n".join(lines) + "\n"
