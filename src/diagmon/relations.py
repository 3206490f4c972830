"""Binary relations on {1..n} under composition and converse.

A relation is stored as one bitmask per source point, so composition is a
bitwise OR over the rows picked out by the left factor.  This keeps
exhaustive sweeps over all 2^(n*n) relations fast for n <= 3.  As for a
diagram, the domain and codomain (``rel_params``) are frozensets of
points, and ``partial_identity(n, points)`` is the identity on such a set.

A relation is the named tuple ``(n, rows)``: its equality and hash are the
tuple's, so a relation equals the plain tuple ``(n, rows)``, and the empty
relation of degree 0 equals the empty diagram.  No module-level dict may
hold a relation: perfbench's tracer rebuilds each tuple value of such a
dict as a plain tuple.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DegreeMismatchError, ValidationError


class BinaryRelation(namedtuple("BinaryRelation", "n rows")):
    """An n x n boolean incidence structure, one bitmask row per point."""

    __slots__ = ()

    def __repr__(self):
        return f"BinaryRelation({self.n}, pairs={sorted(self.pairs())})"

    def pairs(self):
        return frozenset(
            (x + 1, y + 1)
            for x in range(self.n)
            for y in range(self.n)
            if self.rows[x] >> y & 1
        )

    def to_json(self):
        return {"n": self.n, "pairs": sorted(map(list, self.pairs()))}

    @classmethod
    def from_json(cls, data):
        n = data["n"]
        if type(n) is not int or n < 0:
            raise ValidationError(f"degree {n!r} is not an integer >= 0")
        return from_pairs(n, data["pairs"])


def from_pairs(n, pairs) -> BinaryRelation:
    """The relation of the given pairs of points; a point must be exactly
    an ``int``: a bool or a float is refused."""
    rows = [0] * n
    for x, y in pairs:
        if type(x) is not int or type(y) is not int:
            raise ValidationError(f"pair ({x!r},{y!r}) is not of integers")
        if not (1 <= x <= n and 1 <= y <= n):
            raise ValidationError(f"pair ({x},{y}) outside 1..{n}")
        rows[x - 1] |= 1 << (y - 1)
    return BinaryRelation(n, tuple(rows))


def identity_rel(n) -> BinaryRelation:
    return BinaryRelation(n, tuple(1 << i for i in range(n)))


def partial_identity(n, points) -> BinaryRelation:
    return from_pairs(n, [(x, x) for x in points])


def compose(a: BinaryRelation, b: BinaryRelation) -> BinaryRelation:
    """(x,y) in ab iff (x,u) in a and (u,y) in b for some u."""
    if a.n != b.n:
        raise DegreeMismatchError(f"degree {a.n} != {b.n}")
    out = []
    for row in a.rows:
        acc = 0
        u = 0
        while row:
            if row & 1:
                acc |= b.rows[u]
            row >>= 1
            u += 1
        out.append(acc)
    return BinaryRelation(a.n, tuple(out))


def converse(a: BinaryRelation) -> BinaryRelation:
    out = [0] * a.n
    for x in range(a.n):
        row = a.rows[x]
        y = 0
        while row:
            if row & 1:
                out[y] |= 1 << x
            row >>= 1
            y += 1
    return BinaryRelation(a.n, tuple(out))


# frozensets of points of {1..n}
RelationParams = namedtuple("RelationParams", "dom codom")


def rel_params(a: BinaryRelation) -> RelationParams:
    n = a.n
    dom = frozenset(x + 1 for x in range(n) if a.rows[x])
    codom_mask = 0
    for row in a.rows:
        codom_mask |= row
    codom = frozenset(y + 1 for y in range(n) if codom_mask >> y & 1)
    return RelationParams(dom, codom)


def is_partial_function(a: BinaryRelation) -> bool:
    """Membership in the partial transformation monoid (coinjective)."""
    return all(row == 0 or row & (row - 1) == 0 for row in a.rows)


def is_partial_bijection(a: BinaryRelation) -> bool:
    if not is_partial_function(a):
        return False
    seen = 0
    for row in a.rows:
        if row & seen:
            return False
        seen |= row
    return True
