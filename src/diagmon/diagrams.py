"""Partition diagrams on two rows of n points, and their arithmetic.

A diagram of degree n is a set partition of the 2n vertices
{1..n} (upper row) and {1'..n'} (lower row).  Externally a vertex is a
signed integer: +i for upper, -i for lower.  Internally vertices are
0-based: i-1 for upper i, n+i-1 for lower i'.  Every diagram is stored in
canonical form: ``code[v]`` is the block id of vertex v, with ids assigned
in first-occurrence order scanning 1..n then 1'..n'.  Two equal set
partitions therefore have identical encodings, and a diagram is the named
tuple ``(n, code)``: its equality and hash are the tuple's, so a diagram
equals the plain tuple ``(n, code)``, and the empty diagram of degree 0
equals the empty relation.  No module-level dict may hold a diagram:
perfbench's tracer rebuilds each tuple value of such a dict as a plain
tuple.

Multiplication stacks two diagrams, identifies the lower row of the first
with the upper row of the second, and reads off connected components on
the outer rows (a union-find over 3n nodes).

``params`` reads a diagram's domain, codomain, support and cosupport as
frozensets of points of {1..n}, and its kernel and cokernel as canonical
codes: a set partition of {1..n} is its code, ``code[i]`` the block id of
point i+1 in first-occurrence order.  ``id_subset(n, points)`` and
``id_equiv(code)`` build the partial and block identities back from such
values.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import DegreeMismatchError, ValidationError
from .monoid import _classes_by_key, _join_labellings


def _canonical(labels):
    """A block-label sequence relabelled in first-occurrence order."""
    return tuple(_classes_by_key(labels))


class Partition(NamedTuple):
    """A partition diagram in canonical form."""

    n: int
    code: tuple

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


def id_equiv(code: tuple) -> Partition:
    """The block-identity diagram of a canonical code: A together with A'
    for each class A."""
    return Partition(len(code), code + code)


def multiply(a: Partition, b: Partition) -> Partition:
    """Product of diagrams: components of the stacked three-row graph."""
    if a.n != b.n:
        raise DegreeMismatchError(f"degree {a.n} != {b.n}")
    n = a.n
    # a occupies rows 0 and 1, b occupies rows 1 and 2
    find = _join_labellings(3 * n, ((0, a.code), (n, b.code)))
    outer = [find(v) for v in range(n)] + [find(v) for v in range(2 * n, 3 * n)]
    return Partition(n, _canonical(outer))


class DiagramParams(NamedTuple):
    dom: frozenset  # points of {1..n}
    codom: frozenset
    ker: tuple  # canonical code of the upper row
    coker: tuple
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
        ker=_canonical(upper),
        coker=_canonical(lower),
        rank=len(transversal),
        supp=frozenset(i + 1 for i in range(n) if counts[upper[i]] > 1),
        cosupp=frozenset(i + 1 for i in range(n) if counts[lower[i]] > 1),
    )


def refines(a, b) -> bool:
    """True iff every block of a is contained in a block of b, for two
    block-label sequences of one length (two codes, not two diagrams)."""
    if len(a) != len(b):
        raise DegreeMismatchError(f"degree {len(a)} != {len(b)}")
    image = {}
    for x, y in zip(a, b):
        if image.setdefault(x, y) != y:
            return False
    return True
