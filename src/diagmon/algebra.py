"""Categories and exact-rational algebras attached to an Ehresmann monoid.

Given (S, E) satisfying the Ehresmann axioms, the category C(S, E) has the
members of E as objects and hom(e, f) = {x : x+ = e, x* = f}, with
composition the product of S (defined only when the middle objects agree).
The linear map sending a basis element x to the sum of all elements below
it in the natural partial order is an algebra isomorphism from the
semigroup algebra onto the category algebra (Stein, "Algebras of Ehresmann
semigroups and categories"), here certified on (element, generator) pairs.
Its matrix is the zeta matrix of the order and its inverse the Mobius
matrix.  The certificate reads one column of products per basis element
below each generator, grouped by source object, so it forms only defined
compositions.  All linear algebra is exact.  Radical dimensions come from
the trace-form criterion, read off the rows of basis products: the rank of
the integer Gram matrix is bounded below by elimination mod a prime below
2**26, on rows packed 32 residues to a Python int, and above by integer
kernel vectors checked exactly, so no rational elimination runs.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from math import gcd, isqrt, lcm
from operator import eq

from .ehresmann import (
    Semilattice, _check_side, check_axioms, natural_order, reg_e
)
from .errors import StateError
from .monoid import FiniteMonoid

# Caps no sweep.  Its only reader is the ``verify_stein`` hook of the
# benchmark tracer (perfbench/tracer.py); the two are deleted together.
BASIS_CAP = 250


@dataclass
class EhresmannCategory:
    """The category C(S, E): objects E, morphisms the elements of S."""

    monoid: FiniteMonoid
    semilattice: Semilattice
    plus: list  # x -> x+, the source object
    star: list  # x -> x*, the target object
    hom: dict  # (e, f) -> tuple of element indices

    def objects(self):
        return self.semilattice.members

    def endomorphisms(self, e):
        return self.hom.get((e, e), ())


def build_category(s: FiniteMonoid, e: Semilattice) -> EhresmannCategory:
    report = check_axioms(s, e)
    if not report.is_ehresmann():
        failed = [a for a in ("L1", "L2", "R1", "R2") if not report.axioms[a]]
        raise StateError(f"category needs the Ehresmann axioms; {failed} fail")
    plus, star = report.plus, report.star
    hom = {}
    for x in range(s.size):
        hom.setdefault((plus[x], star[x]), []).append(x)
    hom = {k: tuple(v) for k, v in hom.items()}
    return EhresmannCategory(s, e, plus, star, hom)


def is_ei(cat: EhresmannCategory):
    """True iff every endomorphism monoid is a group.

    Returns (flag, witness); the witness is a non-invertible endomorphism.
    """
    s = cat.monoid
    for e in cat.objects():
        endos = cat.endomorphisms(e)
        for x in endos:
            if not any(
                s.mul(x, y) == e and s.mul(y, x) == e for y in endos
            ):
                return False, x
    return True, None


# -- the order, its zeta matrix, and Mobius inversion ------------------------


def topological_order(below):
    """Element indices sorted so smaller-in-the-order comes first."""
    return sorted(range(len(below)), key=lambda y: (len(below[y]), y))


def zeta_matrix(below):
    """Z[x][y] = 1 iff x <= y; columns are the transformed basis vectors."""
    d = len(below)
    z = [[0] * d for _ in range(d)]
    for y, b in enumerate(below):
        for x in b:
            z[x][y] = 1
    return z


def mobius_inverse(below):
    """The Mobius matrix of the order; integer, with zeta * mobius = 1."""
    d = len(below)
    order = topological_order(below)
    m = [[0] * d for _ in range(d)]
    for y in order:
        strictly = sorted(below[y] - {y}, key=lambda x: len(below[x]))
        for x in below[y]:
            if x == y:
                m[x][y] = 1
            else:
                m[x][y] = -sum(m[x][b] for b in strictly if x in below[b])
    # (Z M)[i][j] sums m[k][j] over k in below[j] with i in below[k]
    for j in range(d):
        col = {j: -1}
        for k in below[j]:
            mk = m[k][j]
            if mk:
                for i in below[k]:
                    col[i] = col.get(i, 0) + mk
        if any(col.values()):
            raise StateError("Mobius matrix failed the inversion check")
    return m


# -- the transform onto the category algebra ---------------------------------


def stein_transform(s: FiniteMonoid, e: Semilattice, side: str):
    """Matrix of the basis map x -> sum of all elements below x.

    Requires the Ehresmann axioms plus the restriction containment on the
    requested side (L3 for 'left', R3 for 'right').
    """
    return zeta_matrix(_transform_order(s, e, side))


def _transform_order(s, e, side):
    """The ``natural_order`` of ``side`` once its transform is known to
    exist: the axioms hold and the zeta matrix of the order is
    unitriangular under ``topological_order``, read off the below-sets."""
    report = check_axioms(s, e)
    needed = ("L3", "R3")[_check_side(side)]
    if not report.is_ehresmann() or not report.axioms[needed]:
        raise StateError(
            f"the transform needs the Ehresmann axioms and {needed}"
        )
    below = natural_order(s, e, side)
    pos = {x: i for i, x in enumerate(topological_order(below))}
    if not all(
        y in b and all(pos[x] <= pos[y] for x in b) for y, b in enumerate(below)
    ):
        raise StateError("zeta matrix is not unitriangular under the order")
    return below


def verify_stein(s: FiniteMonoid, e: Semilattice, side: str) -> bool:
    """Multiplicativity of the transform into the category algebra, exactly.

    phi(x) phi(y), expanded with the category product (undefined compositions
    contribute zero), is compared with phi(xy) for every x and every y in
    ``s.generators`` and ``s.identity``.  That covers every pair: the
    category algebra is associative, and each y != 1 is a word w g over the
    certified generators, so by induction on its length phi(x w g) =
    phi(x w) phi(g) = phi(x) phi(w) phi(g) = phi(x) phi(y) by the pairs
    (x w, g) and (w, g).  The pairs (x, 1) cover the empty word; a semigroup
    has no identity, and each of its elements has a non-empty word.
    The sweep reads a*b as entry a of the column of b, taking the columns
    of the b in phi(y) whose source object b+ is the target a* of a: these
    are exactly the defined compositions.  Bijectivity holds structurally:
    the matrix is unitriangular.
    """
    below = _transform_order(s, e, side)
    cat = build_category(s, e)
    return is_multiplicative(cat, [sorted(b) for b in below])


def is_multiplicative(cat: EhresmannCategory, phi) -> bool:
    """The sweep of ``verify_stein`` for any basis map: phi[x] lists the
    basis elements of the image of x."""
    s = cat.monoid
    ys = list(s.generators)
    if s.identity is not None:
        ys.append(s.identity)
    targets = [sorted(p) for p in phi]
    star = cat.star
    for y in ys:
        by_object = {}  # source object -> columns of the b in phi(y)
        for b in phi[y]:
            by_object.setdefault(cat.plus[b], []).append(s.column(b))
        for x, z in enumerate(s.column(y)):
            lhs = [c[a] for a in phi[x] for c in by_object.get(star[a], ())]
            lhs.sort()  # phi(x) phi(y) and phi(xy) as multisets
            if lhs != targets[z]:
                return False
    return True


# -- exact-rational algebras --------------------------------------------------


class RationalAlgebra:
    """An algebra whose basis products are single basis elements or zero.

    Covers both the semigroup algebra (product always defined) and the
    category algebra (undefined compositions are zero).
    """

    def __init__(self, dimension, basis_mul, row=None):
        self.dimension = d = dimension
        self.basis_mul = basis_mul  # (i, j) -> index or None
        # row(i) lists basis_mul(i, j) for every j
        self.row = row or (lambda i: [basis_mul(i, j) for j in range(d)])

    @classmethod
    def of_monoid(cls, s: FiniteMonoid):
        """Rows from one whole table: ``_gram`` reads each row twice."""
        return cls(s.size, s.mul, s._build_table().__getitem__)

    def trace_left(self, k):
        """Trace of left multiplication by basis element k: the number of
        fixed points of its row."""
        return sum(map(eq, self.row(k), range(self.dimension)))


def radical_dim(a: RationalAlgebra) -> int:
    """Dimension of the radical, by the trace form of left multiplication.

    In characteristic zero the radical is the kernel of the bilinear form
    (x, y) -> trace(L_xy), so it is the nullity of the integer Gram matrix
    G[i][j] = t(ij) on the basis, where t holds the d traces of left
    multiplication, computed once.  The rank of G is certified exactly
    without rational elimination: elimination mod a prime below 2**26 gives
    a lower bound, and integer kernel vectors checked by G v = 0 give the
    matching upper bound.
    """
    return a.dimension - _integer_rank(_gram(a))


def _gram(a: RationalAlgebra):
    """The integer trace-form matrix; 0 where a basis product is undefined."""
    d = a.dimension
    traces = {k: a.trace_left(k) for k in range(d)}
    traces[None] = 0
    return [list(map(traces.__getitem__, a.row(i))) for i in range(d)]


# -- exact integer rank: a mod-p lower bound and a kernel certificate ---------


def _is_prime(n):
    """Deterministic Miller-Rabin for odd n > 37 below 3.3 * 10**24."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(q, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """The primes below 2**26 in descending order, starting at 67,108,859.

    Below 2**26 a product of two residues is below 2**52, so the lazy slot
    arithmetic of ``_rref_mod`` stays within 64 bits for 4,096 updates.
    """
    n = 2**26 - 1
    while True:
        if _is_prime(n):
            yield n
        n -= 2


# A row of ``_rref_mod`` is a list of ints, each packing _SLOTS 64-bit slots,
# so one big-int multiply-add updates _SLOTS entries.  Packing goes through
# array("Q") bytes in the native byte order, which puts the first slot of a
# chunk in its low bits on little-endian hosts and its high bits otherwise.
_SLOTS = 32
_CHUNK_BYTES = 8 * _SLOTS
_MASK = 2**64 - 1
_SHIFTS = [64 * k for k in range(_SLOTS)]
if sys.byteorder == "big":
    _SHIFTS.reverse()


def _pack(values):
    """Chunks of the non-negative values below 2**64, zero-padded."""
    a = array("Q", values)
    a.extend([0] * (-len(a) % _SLOTS))
    b = a.tobytes()
    return [
        int.from_bytes(b[i : i + _CHUNK_BYTES], sys.byteorder)
        for i in range(0, len(b), _CHUNK_BYTES)
    ]


def _unpack(chunks):
    """The slots of packed chunks, padding included."""
    a = array("Q")
    for x in chunks:
        a.frombytes(x.to_bytes(_CHUNK_BYTES, sys.byteorder))
    return a


def _reduce(row, p):
    """The packed row with every slot reduced mod p."""
    return _pack([x % p for x in _unpack(row)])


def _rref_mod(rows, ncols, p):
    """Pivot columns and reduced pivot rows of an integer matrix mod p.

    Each returned row has 1 at its pivot and 0 at every other pivot column,
    with entries in [0, p).  When every column has a pivot the rows are only
    forward-reduced (echelon form); ``_integer_rank`` then reads only the
    pivots.

    Rows are packed into 64-bit slots (``_pack``) whose values are kept
    non-negative and congruent to the entries mod p, but reduced lazily.
    A pivot row is reduced and scaled to 1 at its pivot, so an update that
    adds (p - f) times it to another row adds at most (p - 1)**2 to a slot.
    After u updates since its last reduction a slot is below
    p + u * (p - 1)**2, which fits in 64 bits while
    u <= (2**64 - p) // (p - 1)**2; every row is reduced again once it has
    taken that many updates (at least 4,096 below 2**26), so no slot
    carries into its neighbour.  Needs p < 2**32.
    """
    if p >= 2**32:
        raise ValueError(f"prime {p} is too large for 64-bit slots")
    limit = (2**64 - p) // (p - 1) ** 2
    m = [_pack([x % p for x in row]) for row in rows]
    pivots = []
    since = 0  # updates any row has taken since the last reduction
    for c in range(ncols):
        r = len(pivots)
        j, s = c // _SLOTS, _SHIFTS[c % _SLOTS]
        k = next(
            (i for i in range(r, len(m)) if (m[i][j] >> s & _MASK) % p), None
        )
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        slots = _unpack(m[r])
        inv = pow(slots[c] % p, -1, p)
        m[r] = _pack([x * inv % p for x in slots])
        tail = m[r][j:]
        for i in range(r + 1, len(m)):
            row = m[i]
            f = (row[j] >> s & _MASK) % p
            if f:
                g = p - f
                row[j:] = [x + g * y for x, y in zip(row[j:], tail)]
        pivots.append(c)
        since += 1
        if since == limit:
            m[r + 1 :] = [_reduce(row, p) for row in m[r + 1 :]]
            since = 0
        if len(pivots) == len(m):
            break
    m = m[: len(pivots)]
    if len(pivots) < ncols:
        since = 0  # pivot rows take no update in the forward pass
        for i in range(len(pivots) - 1, 0, -1):
            c = pivots[i]
            j, s = c // _SLOTS, _SHIFTS[c % _SLOTS]
            m[i] = _reduce(m[i], p)
            tail = m[i][j:]
            for row in m[:i]:
                f = (row[j] >> s & _MASK) % p
                if f:
                    g = p - f
                    row[j:] = [x + g * y for x, y in zip(row[j:], tail)]
            since += 1
            if since == limit:
                m[:i] = [_reduce(row, p) for row in m[:i]]
                since = 0
    return pivots, [[x % p for x in _unpack(row)[:ncols]] for row in m]


def _reconstruct(u, m):
    """The fraction a/b = u (mod m) with |a|, b <= sqrt(m/2), or None."""
    bound = isqrt(m // 2)
    r0, r1, s0, s1 = m, u % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, abs(s1)) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _kernel_vectors(pivots, free, coeffs, modulus, ncols):
    """Integer kernel candidates, one per free column, or None.

    The vector for free column f has entry L at f, 0 at the other free
    columns, and L times the rational reconstruction of -coeffs[i][f] at
    pivot column i, L clearing the denominators.
    """
    out = []
    for j, f in enumerate(free):
        fracs = []
        for row in coeffs:
            frac = _reconstruct(-row[j], modulus)
            if frac is None:
                return None
            fracs.append(frac)
        scale = lcm(*(b for _, b in fracs))
        v = [0] * ncols
        v[f] = scale
        for c, (num, den) in zip(pivots, fracs):
            v[c] = num * (scale // den)
        out.append(v)
    return out


def _integer_rank(rows):
    """Exact rank over the rationals of an integer matrix.

    For every prime p the rank mod p is a lower bound.  When it falls short
    of the column count, the reduced form mod p yields one candidate kernel
    vector per free column, with an identity block on the free columns, so
    the candidates are independent; once they pass G v = 0 in integers the
    rank is at most the mod-p rank and the answer is exact.  A failed
    reconstruction or check takes the next prime: residues of primes with
    the same pivot columns are combined by the Chinese remainder theorem,
    and a prime with lower rank or later pivots is dropped.  The primes of
    ``_primes`` are below 2**26, so a kernel entry e needs about
    log2(2 * e**2) / 26 of them.  Only finitely many primes are unlucky and
    the Hadamard bound caps the modulus the reconstruction needs, so the
    loop ends.
    """
    rows = list(dict.fromkeys(tuple(r) for r in rows if any(r)))
    if not rows:
        return 0
    ncols = len(rows[0])
    best = None  # ((-rank, pivots), free-column residues, modulus)
    for p in _primes():
        pivots, reduced = _rref_mod(rows, ncols, p)
        if len(pivots) == ncols:
            return ncols
        pivot_set = set(pivots)
        free = [c for c in range(ncols) if c not in pivot_set]
        coeffs = [[row[f] for f in free] for row in reduced]
        key = (-len(pivots), pivots)
        if best is None or key < best[0]:
            best = (key, coeffs, p)
        elif key == best[0]:
            old, modulus = best[1], best[2]
            inv = pow(modulus, -1, p)
            coeffs = [
                [a + modulus * ((b - a) * inv % p) for a, b in zip(ra, rb)]
                for ra, rb in zip(old, coeffs)
            ]
            best = (key, coeffs, modulus * p)
        else:
            continue
        _, coeffs, modulus = best
        vectors = _kernel_vectors(pivots, free, coeffs, modulus, ncols)
        if vectors is not None and all(_in_kernel(rows, v) for v in vectors):
            return len(pivots)


def _in_kernel(rows, v):
    """True iff every row has integer dot product 0 with v."""
    support = [(c, x) for c, x in enumerate(v) if x]
    return not any(sum(row[c] * x for c, x in support) for row in rows)


def check_semisimple_quotient(s: FiniteMonoid, e: Semilattice) -> bool:
    """Dimension check: dim K[S] - dim rad K[S] equals the count of
    E-regular elements.  Requires every endomorphism monoid of C(S, E)
    to be a group; otherwise raises a state error naming that hypothesis."""
    cat = build_category(s, e)
    flag, witness = is_ei(cat)
    if not flag:
        raise StateError(
            "semisimple-quotient check needs every endomorphism to be "
            f"invertible; element {witness} is a non-invertible endomorphism"
        )
    rad = radical_dim(RationalAlgebra.of_monoid(s))
    return s.size - rad == len(reg_e(s, e))
