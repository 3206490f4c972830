"""Partition diagrams on two rows of n points, and their arithmetic.

A diagram of degree n is a set partition of the 2n vertices
{1..n} (upper row) and {1'..n'} (lower row).  Externally a vertex is a
signed integer: +i for upper, -i for lower.  Internally vertices are
0-based: i-1 for upper i, n+i-1 for lower i'.  Every diagram is stored in
canonical form: ``code[v]`` is the block id of vertex v, with ids assigned
in first-occurrence order scanning 1..n then 1'..n'.  Two equal set
partitions therefore have identical encodings, so hashing and equality
are O(n).

Multiplication stacks two diagrams, identifies the lower row of the first
with the upper row of the second, and reads off connected components on
the outer rows (a union-find over 3n nodes).

``params`` reads a diagram's domain, codomain, support and cosupport as
frozensets of points of {1..n}, and its kernel and cokernel as set
partitions.  ``id_subset(n, points)`` and ``id_equiv`` build the partial
and block identities back from such values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DegreeMismatchError, ValidationError
from .monoid import _classes_by_key, _join_labellings


def _canonical(labels):
    """A block-label sequence relabelled in first-occurrence order."""
    return tuple(_classes_by_key(labels))


@dataclass(frozen=True)
class SetPartition:
    """A set partition of {1..n}, canonically labelled.

    ``code[i]`` is the block id of point i+1, in first-occurrence order.
    """

    n: int
    code: tuple

    @classmethod
    def universal(cls, n):
        return cls(n, (0,) * n)

    def num_classes(self):
        return len(set(self.code))


class Partition:
    """A partition diagram in canonical form.  Immutable."""

    __slots__ = ("n", "code", "_hash")

    def __init__(self, n, code):
        self.n = n
        self.code = code
        self._hash = hash((n, code))

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.n == other.n
            and self.code == other.code
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Partition({self.n}, blocks={list(map(sorted, self.blocks()))})"

    def blocks(self):
        """Blocks as tuples of signed points, each block and the list of
        blocks ordered by minimal vertex (upper before lower, then index)."""
        n = self.n
        k = len(set(self.code))
        out = [[] for _ in range(k)]
        for v, b in enumerate(self.code):
            out[b].append(v + 1 if v < n else -(v - n + 1))
        key = lambda x: (x < 0, abs(x))
        return tuple(tuple(sorted(bl, key=key)) for bl in out)

    def to_json(self):
        return {"n": self.n, "blocks": [list(b) for b in self.blocks()]}

    @classmethod
    def from_json(cls, data):
        n = data["n"]
        if type(n) is not int or n < 0:
            raise ValidationError(f"degree {n!r} is not an integer >= 0")
        return from_blocks(data["blocks"], n)


def from_blocks(blocks: Iterable[Iterable[int]], n: int) -> Partition:
    """Build a diagram from blocks of signed points (+i upper, -i lower).
    A point must be exactly an ``int``: a bool or a float is refused."""
    size = 2 * n
    assign = [None] * size
    for block in blocks:
        bid = object()
        for x in block:
            if type(x) is not int:
                raise ValidationError(f"point {x!r} is not an integer")
            if x == 0 or abs(x) > n:
                raise ValidationError(f"vertex {x} outside range for degree {n}")
            v = x - 1 if x > 0 else n - x - 1
            if assign[v] is not None:
                raise ValidationError(f"vertex {x} appears in two blocks")
            assign[v] = bid
    for v, b in enumerate(assign):
        if b is None:
            x = v + 1 if v < n else -(v - n + 1)
            raise ValidationError(f"vertex {x} not covered by any block")
    return Partition(n, _canonical(assign))


def identity(n: int) -> Partition:
    return Partition(n, tuple(range(n)) * 2)


def zeta(n: int) -> Partition:
    """The diagram whose blocks are the whole upper and whole lower row."""
    if n == 0:
        return identity(0)
    return Partition(n, (0,) * n + (1,) * n)


def id_subset(n: int, points) -> Partition:
    """The partial-identity diagram of degree n: {x,x'} for each of the
    points, singletons elsewhere."""
    points = frozenset(points)
    blocks = [(x, -x) for x in points]
    blocks += [(x,) for x in range(1, n + 1) if x not in points]
    blocks += [(-x,) for x in range(1, n + 1) if x not in points]
    return from_blocks(blocks, n)


def id_equiv(e: SetPartition) -> Partition:
    """The block-identity diagram: A together with A' for each class A."""
    return Partition(e.n, e.code + e.code)


def multiply(a: Partition, b: Partition) -> Partition:
    """Product of diagrams: components of the stacked three-row graph."""
    if a.n != b.n:
        raise DegreeMismatchError(f"degree {a.n} != {b.n}")
    n = a.n
    # a occupies rows 0 and 1, b occupies rows 1 and 2
    find = _join_labellings(3 * n, ((0, a.code), (n, b.code)))
    outer = [find(v) for v in range(n)] + [find(v) for v in range(2 * n, 3 * n)]
    return Partition(n, _canonical(outer))


@dataclass(frozen=True)
class DiagramParams:
    dom: frozenset  # points of {1..n}
    codom: frozenset
    ker: SetPartition
    coker: SetPartition
    rank: int
    supp: frozenset
    cosupp: frozenset


def params(a: Partition) -> DiagramParams:
    """Domain, codomain, kernel, cokernel, rank, support and cosupport."""
    n = a.n
    upper = a.code[:n]
    lower = a.code[n:]
    transversal = set(upper) & set(lower)
    counts = {}
    for b in a.code:
        counts[b] = counts.get(b, 0) + 1
    return DiagramParams(
        dom=frozenset(i + 1 for i in range(n) if upper[i] in transversal),
        codom=frozenset(i + 1 for i in range(n) if lower[i] in transversal),
        ker=SetPartition(n, _canonical(upper)),
        coker=SetPartition(n, _canonical(lower)),
        rank=len(transversal),
        supp=frozenset(i + 1 for i in range(n) if counts[upper[i]] > 1),
        cosupp=frozenset(i + 1 for i in range(n) if counts[lower[i]] > 1),
    )


def refines(a, b) -> bool:
    """True iff every block of a is contained in a block of b (two diagrams,
    or two set partitions, of the same degree)."""
    if a.n != b.n:
        raise DegreeMismatchError(f"degree {a.n} != {b.n}")
    image = {}
    for x, y in zip(a.code, b.code):
        if image.setdefault(x, y) != y:
            return False
    return True
