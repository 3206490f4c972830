"""Independent reference implementations used as test oracles.

Everything here is deliberately written against different representations
than the package (explicit block sets, adjacency BFS, Bell-triangle
counting) so agreement is a genuine two-sided check.
"""

import random
import weakref
from collections import Counter
from fractions import Fraction
from math import comb, factorial
from types import SimpleNamespace

from diagmon import algebra
from diagmon import diagrams as dg
from diagmon import ehresmann as eh
from diagmon import relations as rel
from diagmon import zoo
from diagmon.errors import ResourceCapError, StateError, ValidationError


def bell_numbers(count):
    """First ``count`` Bell numbers via the Bell triangle."""
    out = [1]
    row = [1]
    for _ in range(count - 1):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        row = new
        out.append(row[0])
    return out


def stirling2_table(n):
    """S(m, k) for 0 <= k <= m <= n, by the additive recurrence."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for m in range(1, n + 1):
        for k in range(1, m + 1):
            table[m][k] = k * table[m - 1][k] + table[m - 1][k - 1]
    return table


def partial_bijection_count(n):
    return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))


def block_bijection_count(n):
    s = stirling2_table(n)
    return sum(s[n][k] ** 2 * factorial(k) for k in range(n + 1))


def odd_double_factorial(n):
    """(2n - 1)!!"""
    out = 1
    for k in range(1, n):
        out *= 2 * k + 1
    return out


def full_domain_count(n):
    """Partitions with every upper point in a transversal block.

    Counted by choosing a kernel with k classes, then an image structure:
    sum over j >= k of S(n, j) ways to partition the lower row into j
    blocks and j!/(j-k)! injections of kernel classes into them, with the
    remaining lower blocks staying as non-transversals.
    """
    s = stirling2_table(n)
    total = 0
    for k in range(1, n + 1):
        inner = 0
        for j in range(k, n + 1):
            inner += s[n][j] * factorial(j) // factorial(j - k)
        total += s[n][k] * inner
    return total if n else 1


def top_degree(family):
    """The largest degree ``zoo.FamilySpec`` admits for a family under the
    element budget, found by probing degrees upwards."""
    n = 0
    while True:
        try:
            zoo.FamilySpec(family, n + 1)
        except ResourceCapError:
            return n
        n += 1


# -- reference diagram multiplication -----------------------------------------


def multiply_blocks(a_blocks, b_blocks, n):
    """Stacked-graph product on explicit signed-block sets, via BFS.

    Vertices: ('u', i) upper, ('m', i) middle, ('l', i) lower.
    """
    adj = {}

    def link(u, v):
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    def nodes_of(block, top_row, bottom_row):
        return [
            (top_row, x) if x > 0 else (bottom_row, -x) for x in block
        ]

    for block in a_blocks:
        pts = nodes_of(block, "u", "m")
        for p, q in zip(pts, pts[1:]):
            link(p, q)
        if len(pts) == 1:
            adj.setdefault(pts[0], set())
    for block in b_blocks:
        pts = nodes_of(block, "m", "l")
        for p, q in zip(pts, pts[1:]):
            link(p, q)
        if len(pts) == 1:
            adj.setdefault(pts[0], set())
    for i in range(1, n + 1):
        adj.setdefault(("u", i), set())
        adj.setdefault(("m", i), set())
        adj.setdefault(("l", i), set())

    seen = set()
    out = []
    for i in range(1, n + 1):
        for start in (("u", i), ("l", i)):
            if start in seen:
                continue
            stack, comp = [start], set()
            while stack:
                v = stack.pop()
                if v in comp:
                    continue
                comp.add(v)
                stack.extend(adj[v])
            seen |= comp
            block = sorted(
                [x for r, x in comp if r == "u"]
            ) + sorted([-x for r, x in comp if r == "l"], key=abs)
            if block:
                out.append(tuple(block))
    return frozenset(map(frozenset, out))


def rook_multiply(a, b, n):
    """Reference rook-diagram product on (blocks, dots) pairs.

    A rook diagram is (blocks, dots): signed blocks over the retained
    vertices plus the absorbed signed vertices.  Stacks the two diagrams
    with a shared sink for the absorbed vertices; components touching the
    sink are absorbed in the product.
    """
    a_blocks, a_dots = a
    b_blocks, b_dots = b
    sink = ("sink",)
    adj = {sink: set()}

    def link(u, v):
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    def wire(blocks, dots, top, bottom):
        for block in blocks:
            pts = [
                (top, x) if x > 0 else (bottom, -x) for x in block
            ]
            for p, q in zip(pts, pts[1:]):
                link(p, q)
            if len(pts) == 1:
                adj.setdefault(pts[0], set())
        for x in dots:
            link(sink, (top, x) if x > 0 else (bottom, -x))

    wire(a_blocks, a_dots, "u", "m")
    wire(b_blocks, b_dots, "m", "l")
    for i in range(1, n + 1):
        for row in ("u", "m", "l"):
            adj.setdefault((row, i), set())

    absorbed = set()
    stack = [sink]
    while stack:
        v = stack.pop()
        if v in absorbed:
            continue
        absorbed.add(v)
        stack.extend(adj[v])
    outer = [v for v in absorbed if v != sink]
    dots = sorted(
        [x for r, x in outer if r == "u"]
        + [-x for r, x in outer if r == "l"],
        key=lambda v: (v < 0, abs(v)),
    )

    seen = set(absorbed)
    blocks = []
    for i in range(1, n + 1):
        for start in (("u", i), ("l", i)):
            if start in seen:
                continue
            comp, stack = set(), [start]
            while stack:
                v = stack.pop()
                if v in comp:
                    continue
                comp.add(v)
                stack.extend(adj[v])
            seen |= comp
            block = sorted(
                [x for r, x in comp if r == "u"]
            ) + sorted([-x for r, x in comp if r == "l"], key=abs)
            if block:
                blocks.append(tuple(block))
    return frozenset(map(frozenset, blocks)), tuple(dots)


# -- reference enumeration and families of P_n ----------------------------------


def cayley_graph_by_products(generators, op, identity, universe):
    """Right and left Cayley graphs, short-lex words, prefixes and generator
    positions of the monoid generated under op, numbered in universe order.
    Breadth first with one op call per edge, x*g and g*x alike."""
    words, prefix, queue = {identity: ()}, {identity: None}, [identity]
    for x in queue:
        for k, g in enumerate(generators):
            y = op(x, g)
            if y not in words:
                words[y], prefix[y] = words[x] + (k,), x
                queue.append(y)
    assert set(words) == set(universe)
    place = {x: i for i, x in enumerate(universe)}
    return {
        "right": [[place[op(x, g)] for g in generators] for x in universe],
        "left": [[place[op(g, x)] for g in generators] for x in universe],
        "words": [words[x] for x in universe],
        "prefix": [None if prefix[x] is None else place[prefix[x]]
                   for x in universe],
        "generators": [place[g] for g in generators],
    }


def partial_functions_by_filter(universe):
    """PT_n by filtering every relation of ``universe`` (all 2^(n*n)
    relations on n points): a row bitmask with at most one bit is a point
    with at most one image."""
    return tuple(a for a in universe if all(r & (r - 1) == 0 for r in a.rows))


def _block_sizes(a):
    """The block sizes of diagram a, counted from its block code."""
    return Counter(a.code).values()


def is_brauer(a):
    """All blocks have size exactly 2."""
    return all(s == 2 for s in _block_sizes(a))


def is_partial_brauer(a):
    """All blocks have size at most 2."""
    return all(s <= 2 for s in _block_sizes(a))


def family_member(family, a):
    """Whether diagram a lies in a diagram family, read off its signed
    blocks (the rook families 'RP' and 'RJ' of degree n are tested on their
    images in degree n + 1)."""
    n = a.n
    blocks = [frozenset(bl) for bl in a.blocks()]
    upper = [{x for x in bl if x > 0} for bl in blocks]
    lower = [{-x for x in bl if x < 0} for bl in blocks]
    kernel = [u for u in upper if u]
    cokernel = [v for v in lower if v]
    dom = {x for u, v in zip(upper, lower) if v for x in u}
    codom = {x for u, v in zip(upper, lower) if u for x in v}
    full = set(range(1, n + 1))
    absorbing = any(n in bl and -n in bl for bl in blocks)
    member = {
        "B": all(len(bl) == 2 for bl in blocks),
        "PB": all(len(bl) <= 2 for bl in blocks),
        "I": all(len(u) <= 1 for u in upper) and all(len(v) <= 1 for v in lower),
        "J": dom == full and codom == full,
        "T": dom == full and all(len(v) <= 1 for v in lower),
        "Pfd": dom == full,
        "Pfcd": codom == full,
        "Pfk": len(kernel) <= 1,
        "RR": dom == full or len(kernel) <= 1,
        "LL": codom == full or len(cokernel) <= 1,
        "D0": not dom and len(kernel) <= 1,
        "D1": dom == full and len(kernel) <= 1,
        "RP": absorbing,
        "RJ": absorbing and dom == full and codom == full,
    }
    return member[family]


def params_from_blocks(a):
    """The seven parameters of diagram a, read off its signed blocks as in
    ``family_member``: kernel and cokernel as sets of blocks, support and
    cosupport as the points whose block is not a singleton."""
    blocks = [frozenset(bl) for bl in a.blocks()]
    upper = [frozenset(x for x in bl if x > 0) for bl in blocks]
    lower = [frozenset(-x for x in bl if x < 0) for bl in blocks]
    sides = list(zip(blocks, upper, lower))
    return {
        "dom": frozenset(x for _, u, v in sides if v for x in u),
        "codom": frozenset(x for _, u, v in sides if u for x in v),
        "ker": frozenset(u for u in upper if u),
        "coker": frozenset(v for v in lower if v),
        "rank": sum(1 for _, u, v in sides if u and v),
        "supp": frozenset(x for bl, u, _ in sides if len(bl) > 1 for x in u),
        "cosupp": frozenset(x for bl, _, v in sides if len(bl) > 1 for x in v),
    }


# -- reference natural orders of P_n --------------------------------------------


def upper_nontransversals(a):
    """Blocks contained in the upper row, as frozensets of signed points."""
    return tuple(
        frozenset(bl) for bl in a.blocks() if all(x > 0 for x in bl)
    )


def lower_nontransversals(a):
    """Blocks contained in the lower row, as frozensets of signed points."""
    return tuple(
        frozenset(bl) for bl in a.blocks() if all(x < 0 for x in bl)
    )


def _coarsens(a, b):
    """Every block of b lies inside a block of a (same degree)."""
    home = {x: i for i, bl in enumerate(a.blocks()) for x in bl}
    return a.n == b.n and all(
        len({home[x] for x in bl}) == 1 for bl in b.blocks()
    )


def leq_r_structural(a, b):
    """a <= b in the block-identity order x in Fy: b refines a and every
    lower non-transversal of b is a block of a."""
    if not _coarsens(a, b):
        return False
    blocks_a = set(map(frozenset, a.blocks()))
    return all(t in blocks_a for t in lower_nontransversals(b))


def leq_l_structural(a, b):
    """a <= b in the block-identity order x in yF: as ``leq_r_structural``
    with the upper non-transversals of b."""
    if not _coarsens(a, b):
        return False
    blocks_a = set(map(frozenset, a.blocks()))
    return all(t in blocks_a for t in upper_nontransversals(b))


def leq_r_prime_structural(a, b):
    """a <= b in the partial-identity order: a arises from b by removing a
    set of upper vertices from their blocks and leaving them as upper
    singletons.  Checked block by block:

    1. every lower non-transversal of b is a block of a;
    2. for each upper non-transversal C of b, the members of C that are not
       upper singletons of a either vanish or form a block of a;
    3. for each transversal A u B' of b, the non-singleton part of A
       together with B' is a block of a (just B' when all of A is removed).
    """
    if a.n != b.n:
        return False
    singles = {
        next(iter(bl)) for bl in map(frozenset, a.blocks()) if len(bl) == 1
    }
    expected = set()
    for bl in map(frozenset, b.blocks()):
        upper = frozenset(x for x in bl if x > 0)
        lower = frozenset(x for x in bl if x < 0)
        kept = frozenset(x for x in upper if x not in singles)
        for x in upper - kept:
            expected.add(frozenset([x]))
        if not upper:
            expected.add(lower)  # rule 1
        elif not lower:
            if kept:
                expected.add(kept)  # rule 2
        else:
            expected.add(kept | lower)  # rule 3
    return expected == set(map(frozenset, a.blocks()))


# -- reference transform matrices ----------------------------------------------


def zeta_dense(below):
    """Z[x][y] = 1 iff x <= y, as d dense rows filled entry by entry."""
    d = len(below)
    z = [[0] * d for _ in range(d)]
    for y, b in enumerate(below):
        for x in b:
            z[x][y] = 1
    return z


def mobius_dense(below):
    """The Mobius matrix by its definition, m[x][y] = -sum of m[x][b] over
    x <= b < y, filled entry by entry into d dense rows; a StateError
    unless zeta * mobius = 1."""
    d = len(below)
    order = algebra.topological_order(below)
    m = [[0] * d for _ in range(d)]
    for y in order:
        strictly = below[y] - {y}
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


def is_unitriangular(matrix, order):
    """Upper unitriangular once rows and columns are permuted by order,
    entry by entry on the dense matrix."""
    pos = {x: i for i, x in enumerate(order)}
    for x, row in enumerate(matrix):
        for y, v in enumerate(row):
            if x == y:
                if v != 1:
                    return False
            elif v and pos[x] > pos[y]:
                return False
    return True


def matrix_to_json(matrix):
    """The ``stein`` output's encoding of a matrix as one list: row-major
    [numerator, denominator] pairs, an integer v giving [v, 1]."""
    return [[v.numerator, v.denominator] for row in matrix for v in row]


# -- reference Cayley tables and Green's relations ------------------------------


def op_table(elements, op):
    """The Cayley table of a closed element list, one op call per product."""
    index = {x: i for i, x in enumerate(elements)}
    return [[index[op(x, y)] for y in elements] for x in elements]


_TABLES = weakref.WeakKeyDictionary()


def cayley_table(m):
    """The rows of ``m._build_table()``, made once per monoid for every
    oracle here that reads x*y on every pair.

    The table is checked against ``dg.multiply`` and ``rel.compose`` on
    every pair up to degree 3, and on PT4, by
    test_traced_tables_match_multiply and test_relation_tables_match_compose,
    and against rows, columns and ``mul`` on RR4, LL4 and Pfd4 by
    test_rows_filled_on_demand_match_the_whole_table.
    """
    table = _TABLES.get(m)
    if table is None:
        table = _TABLES[m] = m._build_table()
    return table


def restricted_submonoid(parent, indices, order):
    """``FiniteMonoid.submonoid`` before generator actions: the parent's
    products restricted to the subset, read from ``cayley_table`` pair by
    pair, the identity read off that table, and generators grown greedily
    on it, the candidates taken in ``order`` (a sequence of every parent
    element, such as the parent's discovery order).  Returns the table,
    identity, generators and right and left generator graphs."""
    indices = sorted(indices)
    local = {p: i for i, p in enumerate(indices)}
    product = cayley_table(parent)
    table = [[local[product[x][y]] for y in indices] for x in indices]
    rng = range(len(indices))
    identity = next((
        i for i in rng
        if table[i] == list(rng) and all(table[x][i] == x for x in rng)
    ), None)
    gens = []
    members = [] if identity is None else [identity]
    reached = set(members)
    for c in (local[p] for p in order if p in local):
        if c in reached:
            continue
        gens.append(c)
        frontier = [c] + [table[x][c] for x in members]
        for y in frontier:  # grows while it is walked
            if y not in reached:
                reached.add(y)
                members.append(y)
                frontier.extend(table[y][g] for g in gens)
    return {
        "table": table,
        "identity": identity,
        "generators": gens,
        "right": [[row[g] for g in gens] for row in table],
        "left": [[table[g][x] for g in gens] for x in rng],
    }


def word(m, x):
    """The word of element x over m's generators, spelt by reading its
    tree up from x, ``parent`` and ``letter``, to a root."""
    letters = []
    while x >= 0 and m.letter[x] >= 0:
        letters.append(m.letter[x])
        x = m.parent[x]
    return tuple(reversed(letters))


def graph_rows(m):
    """The Cayley table of a monoid without its generators' left actions:
    x*y traced from x through the right graph along the word of y."""
    words = [word(m, y) for y in range(m.size)]

    def trace(x, y):
        for k in words[y]:
            x = m.right[k][x]
        return x

    rng = range(m.size)
    return [[trace(x, y) for y in rng] for x in rng]


def embedding_pairwise(f, s, t):
    """``monoid.check_embedding`` by its definition, one pair at a time."""
    rng = range(s.size)
    return (
        len(set(f)) == s.size
        and (s.identity is None or f[s.identity] == t.identity)
        and all(f[s.mul(i, j)] == t.mul(f[i], f[j]) for i in rng for j in rng)
    )


def escape_pairwise(s, indices):
    """``FiniteMonoid.escape`` by one product per pair, row by row."""
    inside, product = set(indices), cayley_table(s)
    for x in indices:
        for y in indices:
            if product[x][y] not in inside:
                return x, y
    return None


def monoid_associative(m, exhaustive_cap=250, samples=2000):
    """Exhaustive associativity check when small, sampled otherwise."""
    size = m.size
    if size <= exhaustive_cap:
        triples = (
            (i, j, k)
            for i in range(size)
            for j in range(size)
            for k in range(size)
        )
    else:
        rng = random.Random(1)
        triples = (
            (rng.randrange(size), rng.randrange(size), rng.randrange(size))
            for _ in range(samples)
        )
    for i, j, k in triples:
        if m.mul(m.mul(i, j), k) != m.mul(i, m.mul(j, k)):
            return False
    return True


def algebra_associative(a, cap=100):
    """Associativity of a basis product that may be undefined (None)."""
    if a.dimension > cap:
        raise ValueError(f"associativity sweep capped at dimension {cap}")
    rng = range(a.dimension)
    mul = a.basis_mul
    for i in rng:
        for j in rng:
            ij = mul(i, j)
            for k in rng:
                jk = mul(j, k)
                left = mul(ij, k) if ij is not None else None
                right = mul(i, jk) if jk is not None else None
                if left != right:
                    return False
    return True


def regular_pairwise(m):
    """Every x has some a with x a x = x, searched over all a."""
    rng, t = range(m.size), cayley_table(m)
    return all(any(t[t[x][a]][x] == x for a in rng) for x in rng)


def inverse_pairwise(m):
    """Regular with commuting idempotents (equivalently unique inverses)."""
    if not regular_pairwise(m):
        return False
    t = cayley_table(m)
    ids = [x for x in range(m.size) if t[x][x] == x]
    return all(t[e][f] == t[f][e] for e in ids for f in ids if e < f)


def right_zeros_pairwise(m):
    """Elements z with a z = z for every element a."""
    rng, t = range(m.size), cayley_table(m)
    return frozenset(z for z in rng if all(t[a][z] == z for a in rng))


def _first_occurrence_ids(keys):
    ids = {}
    return [ids.setdefault(k, len(ids)) for k in keys]


def green_principal_ideals(m):
    """Green's relations from principal ideals (xS^1, S^1x, S^1xS^1).

    Returns a dict with the fields of ``monoid.GreenStructure``: class ids
    in order of minimal member, D as the join of R and L, and the J-order,
    as each D-class's below-set, from two-sided ideals of D-class
    representatives.
    """
    size, t = m.size, cayley_table(m)
    rng = range(size)
    right = [frozenset({x} | {t[x][j] for j in rng}) for x in rng]
    left = [frozenset({x} | {t[i][x] for i in rng}) for x in rng]
    r_class = _first_occurrence_ids(right)
    l_class = _first_occurrence_ids(left)
    h_class = _first_occurrence_ids(zip(r_class, l_class))

    parent = list(rng)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for classes in (r_class, l_class):
        first = {}
        for x in rng:
            c = classes[x]
            if c in first:
                a, b = find(first[c]), find(x)
                if a != b:
                    parent[b] = a
            else:
                first[c] = x
    d_class = _first_occurrence_ids(find(x) for x in rng)

    reps = {}
    for x in rng:
        reps.setdefault(d_class[x], x)
    two_sided = {}
    for d, x in reps.items():
        ideal = set(right[x])
        for i in rng:
            ideal.update(t[i][k] for k in right[x])
        two_sided[d] = ideal
    d_order = set()
    for a, xa in reps.items():
        for b in reps:
            if xa in two_sided[b]:
                d_order.add((a, b))
    return {
        "r_class": r_class,
        "l_class": l_class,
        "h_class": h_class,
        "d_class": d_class,
        "below": [
            frozenset(a for a in reps if (a, b) in d_order) for b in reps
        ],
        "d_equals_j": all(a == b or (b, a) not in d_order for a, b in d_order),
    }


# -- reference Ehresmann analysis -----------------------------------------------
# The definitions, one ``s.mul`` per (f, x) or (theta, x) pair, as the
# package computed them before reading whole rows and columns.


def e_left(x, e):
    """Members of E that are left identities for x."""
    s = e.parent
    return frozenset(f for f in e.members if s.mul(f, x) == x)


def e_right(x, e):
    """Members of E that are right identities for x."""
    s = e.parent
    return frozenset(f for f in e.members if s.mul(x, f) == x)


def congruence_pairwise(s, classes, thetas, left):
    """One-sided congruence sweep; returns (ok, witness (theta, x, y)) with
    x the first element of y's class met in index order."""
    for th in thetas:
        seen = {}
        for x in range(s.size):
            img = s.mul(th, x) if left else s.mul(x, th)
            c, d = classes[x], classes[img]
            if c in seen:
                x0, d0 = seen[c]
                if d0 != d:
                    return False, (th, x0, x)
            else:
                seen[c] = (x, d)
    return True, None


def containment_pairwise(s, e, left):
    """L3 (xE in Ex) or R3 (Ex in xE) for every x; witness (x, f)."""
    mul = s.mul if left else lambda a, b: s.mul(b, a)
    for x in range(s.size):
        other = {mul(f, x) for f in e.members}
        for f in e.members:  # sorted by Semilattice.create
            if mul(x, f) not in other:
                return False, (x, f)
    return True, None


def unique_member_pairwise(classes, members):
    """L1/R1: the first class, by id, not holding exactly one member of E,
    as (its least element, its members in E)."""
    for c in sorted(set(classes)):
        got = tuple(x for x in members if classes[x] == c)
        if len(got) != 1:
            return False, (classes.index(c), got)
    return True, None


def axioms_pairwise(s, e):
    """The six axiom results of ``check_axioms`` as name -> (ok, witness),
    with the tilde classes they are read from."""
    r_tilde = _first_occurrence_ids([e_left(x, e) for x in range(s.size)])
    l_tilde = _first_occurrence_ids([e_right(x, e) for x in range(s.size)])
    full = s.size <= eh.TABLE_CAP
    thetas = range(s.size) if full else sorted(set(s.generators))
    checks = {
        "L1": unique_member_pairwise(r_tilde, e.members),
        "R1": unique_member_pairwise(l_tilde, e.members),
        "L2": congruence_pairwise(s, r_tilde, thetas, left=True),
        "R2": congruence_pairwise(s, l_tilde, thetas, left=False),
        "L3": containment_pairwise(s, e, left=True),
        "R3": containment_pairwise(s, e, left=False),
    }
    return checks, r_tilde, l_tilde


def rest_sets_pairwise(s, e):
    """The left, right and two-sided restriction sets by their definition."""
    rest_l, rest_r = [], []
    for x in range(s.size):
        xe = {s.mul(x, f) for f in e.members}
        ex = {s.mul(f, x) for f in e.members}
        if xe <= ex:
            rest_l.append(x)
        if ex <= xe:
            rest_r.append(x)
    rest = sorted(set(rest_l) & set(rest_r))
    return tuple(rest_l), tuple(rest_r), tuple(rest)


def natural_order_pairwise(s, e, side):
    """below[y] = Ey ('left') or yE ('right')."""
    if side == "left":
        return [frozenset(s.mul(f, y) for f in e.members) for y in range(s.size)]
    return [frozenset(s.mul(y, f) for f in e.members) for y in range(s.size)]


def is_partial_order(below):
    """Reflexivity, antisymmetry and transitivity of a below-set family."""
    for y, b in enumerate(below):
        if y not in b:
            return False
        for x in b:
            if x != y and y in below[x]:
                return False
            if not below[x] <= b:
                return False
    return True


# -- helpers only the tests use -------------------------------------------------


def involute(a):
    """Swap the upper and lower rows of a partition diagram."""
    return dg.from_blocks([[-x for x in b] for b in a.blocks()], a.n)


def empty_rel(n):
    return rel.BinaryRelation(n, (0,) * n)


def full_rel(n):
    return rel.BinaryRelation(n, ((1 << n) - 1,) * n)


def is_total_function(a):
    return all(row != 0 and row & (row - 1) == 0 for row in a.rows)


def compose(cat, x, y):
    """The composition of the category ``cat``, x then y: the product x*y,
    defined iff the target object of x is the source object of y."""
    if cat.star[x] != cat.plus[y]:
        return None
    return cat.monoid.mul(x, y)


def category_algebra(cat):
    """The category algebra: undefined compositions are zero."""
    return algebra.RationalAlgebra(
        cat.monoid.size, lambda x, y: compose(cat, x, y)
    )


def algebra_multiply(a, u, v):
    """The product of two vectors of a ``RationalAlgebra``, each a dict
    index -> Fraction with no zero entries."""
    out = {}
    for i, x in u.items():
        for j, y in v.items():
            k = a.basis_mul(i, j)
            if k is not None:
                out[k] = out.get(k, 0) + x * y
    return {k: c for k, c in out.items() if c}


def closure(generators, op, start):
    """Every element reached from ``start`` by right multiplication by the
    generators, as a list in breadth-first discovery order."""
    seen = {start}
    out = [start]
    for x in out:  # grows while it is walked
        for g in generators:
            p = op(x, g)
            if p not in seen:
                seen.add(p)
                out.append(p)
    return out


def generates(m, generators):
    """True iff the elements with the given indices generate m, judged by
    the size of their closure: as a monoid, or as a semigroup (with a
    formal identity adjoined) when m has no identity."""
    if m.identity is not None:
        return len(closure(generators, m.mul, m.identity)) == m.size
    op = lambda x, g: g if x < 0 else m.mul(x, g)
    return len(closure(generators, op, -1)) == m.size + 1


def green_class_count(gs, rel):
    """The number of classes of Green's relation 'r', 'l', 'h' or 'd'."""
    return len(set(getattr(gs, rel + "_class")))


def set_partition_classes(code):
    """The blocks of a set partition's canonical code as frozensets,
    ordered by block id."""
    return tuple(
        frozenset(x + 1 for x, b in enumerate(code) if b == c)
        for c in range(len(set(code)))
    )


def set_partition_join(p, q):
    """The least common coarsening of two canonical codes of one length:
    their blocks, merged while any two overlap."""
    merged = []
    for block in set_partition_classes(p) + set_partition_classes(q):
        block = set(block)
        for other in [m for m in merged if m & block]:
            merged.remove(other)
            block |= other
        merged.append(block)
    return set_partition_from_blocks(len(p), merged)


def set_partition_from_blocks(n, blocks):
    """The canonical code of the set partition of {1..n} with the given
    blocks; raises ValidationError unless the blocks partition 1..n."""
    assign = {}
    for block in blocks:
        bid = len(assign)
        for x in block:
            if not 1 <= x <= n:
                raise ValidationError(f"point {x} outside 1..{n}")
            if x in assign:
                raise ValidationError(f"point {x} appears in two blocks")
            assign[x] = bid
    missing = [x for x in range(1, n + 1) if x not in assign]
    if missing:
        raise ValidationError(f"point {missing[0]} not covered")
    return dg._canonical(assign[x] for x in range(1, n + 1))


def partition_generators(n):
    """A standard generating set of the degree-n partition monoid, as
    diagrams: adjacent transpositions, the partial identity on {1..n-1} and
    the block identity of {n-1, n}.  ``zoo.partition_actions(n)`` is the
    right action of each, in this order."""
    gens = []
    for i in range(1, n):
        blocks = [(x, -x) for x in range(1, n + 1) if x not in (i, i + 1)]
        blocks += [(i, -(i + 1)), (i + 1, -i)]
        gens.append(dg.from_blocks(blocks, n))
    if n >= 1:
        gens.append(dg.id_subset(n, range(1, n)))
    if n >= 2:
        e = set_partition_from_blocks(
            n, [[n - 1, n]] + [[x] for x in range(1, n - 1)]
        )
        gens.append(dg.id_equiv(e))
    return gens


def relation_kernel(a):
    """The pairs (x, y) of points of a relation's domain that share an
    image point: reflexive and symmetric on the domain, maybe not
    transitive.  The cokernel is the kernel of the converse."""
    return frozenset(
        (x + 1, y + 1)
        for x in range(a.n)
        for y in range(a.n)
        if a.rows[x] & a.rows[y]
    )


def relation_predicates(a):
    """Injectivity and surjectivity of a relation and of its converse,
    from its domain, codomain, kernel and cokernel."""
    p = rel.rel_params(a)
    trivial_on = lambda pairs, s: pairs == frozenset((x, x) for x in s)
    return SimpleNamespace(
        injective=trivial_on(relation_kernel(a), p.dom),
        coinjective=trivial_on(relation_kernel(rel.converse(a)), p.codom),
        surjective=len(p.codom) == a.n,
        cosurjective=len(p.dom) == a.n,
    )


# -- reference transform check ------------------------------------------------


def stein_generator_pairs(cat, phi):
    """The sweep of ``algebra.is_multiplicative`` on (element, generator)
    pairs, by definition: every composition of phi(x) phi(y) through
    ``compose``, undefined ones dropped, compared with
    phi(xy) as a multiset."""
    s = cat.monoid
    ys = list(s.generators)
    if s.identity is not None:
        ys.append(s.identity)
    for x in range(s.size):
        for y in ys:
            lhs = Counter(compose(cat, a, b) for a in phi[x] for b in phi[y])
            del lhs[None]  # undefined compositions contribute zero
            if lhs != Counter(phi[s.mul(x, y)]):
                return False
    return True


def stein_pairwise(cat, phi):
    """phi(x) phi(y) = phi(xy) on every pair (x, y), not only on the
    (element, generator) pairs of ``stein_generator_pairs``, counting
    compositions in a plain dict."""
    s = cat.monoid
    rng = range(s.size)
    for x in rng:
        for y in rng:
            lhs = {}
            for a in phi[x]:
                for b in phi[y]:
                    c = compose(cat, a, b)
                    if c is not None:
                        lhs[c] = lhs.get(c, 0) + 1
            if lhs != {c: 1 for c in phi[s.mul(x, y)]}:
                return False
    return True


# -- reference radical dimension ------------------------------------------------


def table_algebra(s):
    """The semigroup algebra of the monoid s for the Gram oracle: its
    basis product read pair by pair from ``cayley_table(s)``."""
    t = cayley_table(s)
    return algebra.RationalAlgebra(s.size, lambda i, j: t[i][j])


def gram_fractions(a):
    """The trace-form Gram matrix from definitional traces: the trace of
    left multiplication by k counts the j with k*j = j."""
    d, mul = a.dimension, a.basis_mul
    trace = {None: Fraction(0)}
    for k in range(d):
        trace[k] = Fraction(sum(1 for j in range(d) if mul(k, j) == j))
    return [[trace[mul(i, j)] for j in range(d)] for i in range(d)]


def rational_rank(rows):
    """Rank by Gaussian elimination over exact rationals (in place)."""
    if not rows:
        return 0
    d = len(rows[0])
    rank = 0
    for col in range(d):
        pivot = next(
            (r for r in range(rank, len(rows)) if rows[r][col]), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        inv = 1 / prow[col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] * inv
            if f:
                rows[r] = [x - f * p for x, p in zip(rows[r], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def radical_nullity(a):
    """dim rad A as the nullity of the rational trace form."""
    return a.dimension - rational_rank(gram_fractions(a))


def rref_mod_lists(rows, ncols, p):
    """Pivot columns and reduced pivot rows of an integer matrix mod p, by
    elimination on lists of residues, one modular operation per entry.

    Each returned row has 1 at its pivot and 0 at every other pivot column;
    with a pivot in every column the rows are left in echelon form.
    """
    m = [[x % p for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        k = next((i for i in range(r, len(m)) if m[i][c]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        inv = pow(m[r][c], -1, p)
        prow = m[r]
        prow[c:] = [x * inv % p for x in prow[c:]]
        tail = prow[c:]
        for i in range(r + 1, len(m)):
            row = m[i]
            f = row[c]
            if f:
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], tail)]
        pivots.append(c)
        if len(pivots) == len(m):
            break
    m = m[: len(pivots)]
    if len(pivots) < ncols:
        for i in range(len(pivots) - 1, 0, -1):
            c = pivots[i]
            tail = m[i][c:]
            for row in m[:i]:
                f = row[c]
                if f:
                    row[c:] = [(x - f * y) % p for x, y in zip(row[c:], tail)]
    return pivots, m
