"""Named constructors for the diagram and relation monoids under study.

Each family is declared once, by its ``Family`` record in ``FAMILIES``:
its universe, 'P' (cut from P_n), 'rook' (cut from P_(n+1)), 'BX' (all
relations on n points) or 'PT' (the partial functions), which ``home``
alone reads, turning it into the whole universe and degree the family
lives in; its membership test on the ``_Facts`` of a diagram, None for a
whole universe; whether ``identify`` may name a regular part after it,
the first ``named`` family in table order winning; and the closed form of
|X_n| where one is known, read by the element budget and by ``verify``'s
size lines.  Closure under the product is a checked fact.  Every action
``froidure_pin`` walks is made here, read off tables of integers: P_n's
standard generators each relabel a diagram's lower row, one table over
the ranks of the lower rows that complete k upper labels
(``_partition_actions``), and a generator of BX_n or PT_n maps each row
of a relation by one table over the row values (``_relation_actions``).
Every other diagram family is an index subset of one P_n, which
``FiniteMonoid.submonoid`` turns into a monoid of the same kind: greedy
generators, each one's right and left action, and no table.  One pass per
degree (``family_cuts``) reads each diagram's code, not its parameters:
every membership test is a fact about the sets of upper and lower block
labels, the block sizes or the absorbing block.  Rook diagrams of degree
n are represented by their image in the degree-(n+1) partition monoid,
with the extra point playing the role of the absorbing vertex, so rook
and partition diagrams share one product.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Callable
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial, prod

from . import diagrams as dg
from . import relations as rel
from .diagrams import Partition, _canonical
from .errors import ResourceCapError, ValidationError
from .ehresmann import Semilattice, _check_side
from .monoid import FiniteMonoid, _gather, froidure_pin


@lru_cache(maxsize=None)
def stirling2(n, k):
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def bell(n):
    return sum(stirling2(n, k) for k in range(n + 1))


# slots, not a tuple: perfbench's tracer makes module-dict tuples plain tuples
class Family:
    """A family's universe, membership test, nameability and size."""

    __slots__ = ("universe", "member", "named", "size")

    def __init__(self, universe: str,
                 member: Callable[["_Facts"], bool] | None = None,
                 named: bool = False, size: Callable[[int], int] | None = None):
        self.universe, self.member = universe, member
        self.named, self.size = named, size


FAMILIES = {
    "P": Family("P", size=lambda n: bell(2 * n)),
    "B": Family("P", lambda f: f.brauer,
                size=lambda n: prod(range(1, 2 * n, 2))),  # (2n - 1)!!
    "PB": Family("P", lambda f: f.partial),
    "RP": Family("rook", lambda f: f.rook),
    "I": Family("P", lambda f: f.discrete and f.codiscrete, named=True,
                size=lambda n: sum(comb(n, k) ** 2 * factorial(k)
                                   for k in range(n + 1))),
    "J": Family("P", lambda f: f.dom and f.codom, named=True,
                size=lambda n: sum(stirling2(n, k) ** 2 * factorial(k)
                                   for k in range(n + 1))),
    "T": Family("P", lambda f: f.dom and f.codiscrete, named=True,
                size=lambda n: n**n),
    "PT": Family("PT", named=True, size=lambda n: (n + 1) ** n),
    "Pfd": Family("P", lambda f: f.dom, named=True),
    "Pfcd": Family("P", lambda f: f.codom),
    "Pfk": Family("P", lambda f: f.universal),
    "RR": Family("P", lambda f: f.dom or f.universal, named=True),
    "LL": Family("P", lambda f: f.codom or f.couniversal, named=True),
    "RJ": Family("rook", lambda f: f.rook and f.dom and f.codom, named=True),
    "BX": Family("BX", size=lambda n: 2 ** (n * n)),
    "D0": Family("P", lambda f: f.none and f.universal, size=bell),
    "D1": Family("P", lambda f: f.dom and f.universal),
}

# the most elements a family's universe may have: Bell(8) = |P_4|
UNIVERSE_BUDGET = 4140


def home(family, n):
    """The whole universe a family of degree n is cut from or makes up, as
    its ``FAMILIES`` key ('P', 'BX' or 'PT') and the degree of its
    elements: a rook family's is P_(n+1).  The one reader of
    ``Family.universe``."""
    universe = FAMILIES[family].universe
    return ("P", n + 1) if universe == "rook" else (universe, n)


class FamilySpec(namedtuple("FamilySpec", "family n")):
    __slots__ = ()

    @classmethod
    def parse(cls, name: str) -> "FamilySpec":
        # longest family first (D0/D1 contain a digit themselves); a degree
        # spelled otherwise than str(n) is refused, so a family has one name
        fams = "|".join(sorted(FAMILIES, key=len, reverse=True))
        match = re.fullmatch(f"({fams})(0|[1-9][0-9]*)", name)
        if match is None:
            raise ValidationError(f"unknown family name {name!r}")
        fam, digits = match.groups()
        try:
            return cls(fam, int(digits))
        except ValueError:  # more digits than int() converts
            raise ResourceCapError(
                f"{fam}_n with {len(digits)} digits exceeds the element "
                f"budget", UNIVERSE_BUDGET,
            ) from None

    def __new__(cls, family: str, n: int):
        if family not in FAMILIES or type(n) is not int or n < 0:
            raise ValidationError(f"no family {family}_{n}")
        # the home universe's own record sizes it; universes grow with n,
        # so walking up never sizes a huge n itself
        for k in range(n + 1):
            universe, degree = home(family, k)
            if FAMILIES[universe].size(degree) > UNIVERSE_BUDGET:
                raise ResourceCapError(
                    f"{family}_n from degree {k} exceeds the element "
                    f"budget", UNIVERSE_BUDGET,
                )
        return super().__new__(cls, family, n)

    @classmethod
    def _make(cls, iterable):  # read by namedtuple's _replace
        return cls(*iterable)

    def __str__(self):
        return f"{self.family}{self.n}"


# -- element universes -------------------------------------------------------


def set_partition_codes(size, start=()):
    """All canonical block-id sequences (restricted growth strings) that
    extend the code ``start`` by ``size`` entries, in lexicographic
    order."""
    codes = [start]
    for _ in range(size):
        codes = [c + (b,) for c in codes for b in range(max(c, default=-1) + 2)]
    return codes


@lru_cache(maxsize=None)
def partition_universe(n):
    """All partition diagrams of degree n."""
    return tuple(Partition(n, code) for code in set_partition_codes(2 * n))


def _row_values(family, n):
    """The rows of BX_n's relations ('BX') or PT_n's partial functions
    ('PT'), increasing: every bitmask, or 0 and the single bits."""
    return range(1 << n) if family == "BX" else (0, *(2**j for j in range(n)))


@lru_cache(maxsize=None)
def relation_universe(family, n):
    """BX_n's relations ('BX') or PT_n's partial functions ('PT'), listed
    by their rows read as digits over ``_row_values``, first row most
    significant, so PT_n's keep their order among BX_n's."""
    rows = _row_values(family, n)
    return tuple(rel.BinaryRelation(n, r) for r in product(rows, repeat=n))


@lru_cache(maxsize=None)
def equivalences(n):
    """All set partitions of {1..n}, i.e. all equivalences, as canonical
    codes."""
    return tuple(set_partition_codes(n))


# -- family cuts --------------------------------------------------------------


_Facts = namedtuple("_Facts", "discrete codiscrete universal couniversal "
                    "dom codom none brauer partial rook")


@lru_cache(maxsize=None)
def family_cuts(n):
    """Each family with a membership test, cut from P_n, as the sorted
    tuple of its positions in ``partition_universe(n)`` (a 'rook' family's
    of degree n - 1, empty at n = 0).

    Every membership test reads the code alone.  With U and L the sets of
    upper and lower block labels: dom is full iff U <= L, codom is full iff
    L <= U, the kernel is discrete iff |U| = n and universal iff |U| <= 1
    (the cokernel likewise from L), and there is no transversal iff U and L
    are disjoint.  Block sizes come from ``code.count``, and the rook test
    is that the extra points n and n' share a block.  One pass groups the
    diagrams by these ``_Facts``, and each family takes the groups its
    record's test admits."""
    groups = {}
    for i, a in enumerate(partition_universe(n)):
        code = a.code
        upper, lower = set(code[:n]), set(code[n:])
        sizes = set(map(code.count, upper | lower))
        key = _Facts(
            len(upper) == n, len(lower) == n, len(upper) <= 1,
            len(lower) <= 1, upper <= lower, lower <= upper,
            upper.isdisjoint(lower), sizes <= {2}, sizes <= {1, 2},
            n >= 1 and code[n - 1] == code[2 * n - 1],
        )
        groups.setdefault(key, []).append(i)
    return {
        fam: tuple(sorted(
            i for f, kept in groups.items() if family.member(f) for i in kept
        ))
        for fam, family in FAMILIES.items() if family.member
    }


def family_cut(spec: FamilySpec):
    """The positions of a diagram family in the universe it is cut from,
    ``partition_universe`` of its ``home`` degree."""
    return family_cuts(home(*spec)[1])[spec.family]


# -- builders ----------------------------------------------------------------


# A code of P_n is u + l: its upper row u, a restricted growth string with k
# labels, and its lower row l, one of the completions of any upper row of k
# labels.  So ``partition_universe(n)`` lists the diagrams upper row by upper
# row, each with the completions in lexicographic order, and the position of
# u + l is the offset of u plus the rank of l among the completions.


def _relabellings(n):
    """x -> x*g for each standard generator g of P_n, as a relabelling of a
    code whose last n entries are its lower row: a transposition s_i swaps
    lower points i and i+1, the partial identity on {1..n-1} gives lower
    point n a fresh label, and the block identity of {n-1, n} merges the
    blocks of lower points n-1 and n.  Each returns a tuple, which may need
    canonicalising."""

    def swap(i):
        def act(code):
            code = list(code)
            code[i - n - 1], code[i - n] = code[i - n], code[i - n - 1]
            return tuple(code)

        return act

    def isolate(code):
        return code[:-1] + (max(code[:-1], default=-1) + 1,)

    def merge(code):
        old, new = code[-1], code[-2]
        return tuple([new if b == old else b for b in code])

    acts = [swap(i) for i in range(1, n)]
    if n >= 1:
        acts.append(isolate)
    if n >= 2:
        acts.append(merge)
    return acts


def _ranking(n):
    """The upper rows of P_n's codes, in lexicographic order; for each k,
    the lower rows that complete an upper row of k labels, in
    lexicographic order, and their ranks; and each upper row's offset, the
    position of its first diagram in ``partition_universe(n)``."""
    uppers = equivalences(n)
    lowers = [[c[k:] for c in set_partition_codes(n, tuple(range(k)))]
              for k in range(n + 1)]
    rank = [dict(zip(rows, range(len(rows)))) for rows in lowers]
    offset, size = {}, 0
    for u in uppers:
        offset[u] = size
        size += len(lowers[len(set(u))])
    return uppers, lowers, rank, offset


def _position(ranking, code):
    """The position of a canonical code in ``partition_universe(n)``, from
    ``_ranking(n)``: its upper row's offset plus its lower row's rank."""
    _, _, rank, offset = ranking
    upper = code[:len(code) // 2]
    return offset[upper] + rank[len(set(upper))][code[len(upper):]]


def _partition_actions(n):
    """Each standard generator's right action on P_n, as one tuple of
    positions in ``partition_universe(n)``.

    A relabelling moves only lower-row labels and renumbers those not on
    the upper row in first-occurrence order from k, so on the diagrams
    whose upper row u has k labels it is one table of ranks, made once from
    the upper row 0..k-1: x*g = offset(u) + table[rank(l)].  The one
    exception is the merge of lower points n-1 and n when they carry two
    different upper labels, which joins two upper blocks: each such
    product is relabelled on its own and located by ``_position``.  The
    tests certify each action against the product with its generator."""
    ranking = uppers, lowers, rank, offset = _ranking(n)
    size = sum(len(lowers[len(set(u))]) for u in uppers)
    positions = tuple(range(size))  # one int per position, for every action

    actions = []
    for act in _relabellings(n):
        tables, joins = [], []  # per k: the ranks, and the exceptions' ranks
        for k, rows in enumerate(lowers):
            upper, ranks = tuple(range(k)), rank[k]
            table, join = [], []
            for r, low in enumerate(rows):
                code = act(upper + low)
                # looked up as it stands first: most products are canonical
                t = ranks.get(code[k:]) if code[:k] == upper else None
                if t is None:
                    code = _canonical(code)
                    t = ranks.get(code[k:]) if code[:k] == upper else None
                if t is None:  # two upper blocks joined
                    join.append(r)
                table.append(r if t is None else t)
            tables.append(table)
            joins.append(join)
        line = []
        for u in uppers:
            k, start = len(set(u)), offset[u]
            line += _gather(positions[start:start + len(lowers[k])], tables[k])
            for r in joins[k]:
                code = _canonical(act(u + lowers[k][r]))
                line[start + r] = positions[_position(ranking, code)]
        actions.append(tuple(line))
    return actions


def _relation_actions(generators, family, n):
    """Each generator's right action on BX_n ('BX') or PT_n ('PT'), as one
    tuple of positions in ``relation_universe(family, n)``, None where x*g
    falls outside.

    A relation's position is its rows read as digits over the row values,
    first row most significant.  Row i of x*g is the first row of
    (r, ..., r)*g for x's row i = r, so one ``rel.compose`` per row value
    makes g's table of digits, None off the row values, through which x*g
    is read off x's digits.  At n = 0 no relation has a row: x*g is x."""
    rows = _row_values(family, n)
    digit = dict(zip(rows, range(len(rows))))
    positions = tuple(range(len(rows) ** n))  # one int each, for every action
    actions = []
    for g in generators:
        table = [digit.get(rel.compose(rel.BinaryRelation(n, (r,) * n),
                                       g).rows[0]) for r in rows if n]
        line = [0]
        for _ in range(n):  # one more digit, least significant, each time
            line = [None if p is None or t is None else p * len(rows) + t
                    for p in line for t in table]
        actions.append(tuple(p if p is None else positions[p] for p in line))
    return actions


def _partition_monoid(n):
    """P_n, walked by ``froidure_pin`` over ``_partition_actions(n)``."""
    return froidure_pin(
        _partition_actions(n), dg.identity(n), partition_universe(n)
    )


@lru_cache(maxsize=None)
def build(name) -> FiniteMonoid:
    """Build a named monoid, e.g. 'P3', 'RR4', 'BX2', 'RJ2'.

    P_n, BX_n and PT_n are walked by ``froidure_pin`` over their
    generators' right actions on their universes (``_partition_actions``,
    ``_relation_actions``); reaching the whole universe certifies the
    generating set.  Every other diagram family is an index subset of the
    P_m of its ``home``, cut by ``family_cut`` and made a monoid by
    ``FiniteMonoid.submonoid``.
    """
    spec = FamilySpec.parse(str(name))
    universe, n = home(*spec)
    if FAMILIES[spec.family].member:
        return build(f"{universe}{n}").submonoid(family_cut(spec))
    if universe == "P":
        return _partition_monoid(n)
    return froidure_pin(
        _relation_actions(relation_generators(universe, n), universe, n),
        rel.identity_rel(n), relation_universe(universe, n),
    )


SEMILATTICE_KINDS = ("E", "F", "G")


def semilattice_for(kind: str, name: str) -> Semilattice:
    """The semilattice of partial identities (E) or block identities (F)
    of a family given by name, or of block identities over every point of
    its diagrams (G), a rook monoid's absorbing point included.  In a rook
    monoid of degree n, E and F are taken at degree n and lifted.  A kind
    the family does not have is rejected before the family is built."""
    spec = FamilySpec.parse(str(name))  # over the budget: fails first
    universe, degree = home(*spec)
    relations = universe != "P"
    if kind not in SEMILATTICE_KINDS:
        raise ValidationError(f"unknown semilattice kind {kind!r}")
    if relations and kind != "E":
        raise ValidationError(f"semilattice {kind} undefined for relations")
    parent = build(str(spec))
    n = degree if kind == "G" else spec.n  # the degree of the members made
    if kind == "E":
        ident = rel.partial_identity if relations else dg.id_subset
        members = [
            ident(n, c)
            for k in range(n + 1)
            for c in combinations(range(1, n + 1), k)
        ]
    else:
        members = [dg.id_equiv(e) for e in equivalences(n)]
    if n != degree:
        members = [lift_to_rook(x) for x in members]
    try:
        idx = [parent.index[x] for x in members]
    except KeyError:
        raise ValidationError(
            f"semilattice {kind} is not contained in the given monoid"
        ) from None
    try:
        return Semilattice.create(parent, idx)
    except ValidationError as exc:
        raise ValidationError(f"semilattice {kind} of {spec}: {exc}") from None


def identify(s, indices):
    """The name of the first family of ``FAMILIES`` marked ``named`` whose
    elements are those of the index subset of s, or None.  Relations, told
    apart first as the empty relation equals the empty diagram, are compared
    with each relation family of their degree, a whole universe; diagrams of
    degree m by their sorted positions in P_m, built already as every
    diagram family is cut from it, with each cut of ``family_cuts(m)``."""
    sample = s.decode(0)
    m, relations = sample.n, isinstance(sample, rel.BinaryRelation)
    if relations:
        elements = set(map(s.decode, indices))
    else:
        index = build(f"P{m}").index
        positions = tuple(sorted({index[s.decode(i)] for i in indices}))
    for fam, family in FAMILIES.items():
        universe, shift = home(fam, 0)  # degree n: members of n + shift
        if not family.named or m < shift or relations == (universe == "P"):
            continue
        if (elements == build(f"{fam}{m}").index.keys() if relations
                else positions == family_cuts(m)[fam]):
            return f"{fam}{m - shift}"
    return None


def relation_generators(family, n):
    """Generators of PT_n ('PT'): the adjacent transpositions, the partial
    identity on {1..n-1} and the map fixing 1..n-1 that sends n to n-1.
    BX_n ('BX', n <= 4) adds 1 ∪ {(1,2)}; at n = 3 one more relation,
    without which the closure has 506 of the 512 relations, and at n = 4
    three more, given by their rows, without which it has 63,904 of the
    65,536."""
    fixed = [(x, x) for x in range(1, n)]
    gens = []
    for i in range(1, n):
        swap = [(x, x) for x in range(1, n + 1) if x not in (i, i + 1)]
        gens.append(rel.from_pairs(n, swap + [(i, i + 1), (i + 1, i)]))
    if n >= 1:
        gens.append(rel.from_pairs(n, fixed))
    if n >= 2:
        gens.append(rel.from_pairs(n, fixed + [(n, n - 1)]))
        if family == "BX":
            gens.append(rel.from_pairs(n, fixed + [(n, n), (1, 2)]))
    if family == "BX" and n == 3:
        gens.append(
            rel.from_pairs(3, [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 3)])
        )
    if family == "BX" and n == 4:
        gens += [rel.BinaryRelation(4, rows) for rows in
                 ((3, 5, 9, 14), (3, 5, 10, 12), (1, 6, 10, 12))]
    return gens


# -- rook-diagram plumbing ---------------------------------------------------


def rook_embed(blocks, n, rook_dots=()) -> Partition:
    """Encode a degree-n rook diagram as a degree-(n+1) partition.

    ``blocks`` partitions the retained signed vertices; ``rook_dots`` are
    the signed vertices absorbed by the extra point and its primed copy.
    """
    inf = n + 1
    absorbed = [inf, -inf]
    for x in rook_dots:
        if x == 0 or abs(x) > n:
            raise ValidationError(f"rook dot {x} outside range for degree {n}")
        absorbed.append(x)
    return dg.from_blocks(list(blocks) + [absorbed], inf)


def lift_to_rook(a: Partition) -> Partition:
    """The copy of a degree-n diagram inside the rook monoid (no rook dots)."""
    return rook_embed(a.blocks(), a.n)


def tower_maps(n):
    """Index maps of P_n -> RP_n -> P_{n+1}; the second is RP_n's cut."""
    rp = build(f"RP{n}")
    first = [rp.index[lift_to_rook(a)] for a in build(f"P{n}").elements]
    return first, list(family_cut(FamilySpec("RP", n)))


# -- fixed witness elements --------------------------------------------------


def witness_sets():
    """Concrete named elements used across the verification suites."""
    alpha6 = dg.from_blocks(
        [[1, 4], [2, 3, -4, -5], [5, 6], [-1, -2, -6], [-3]], 6
    )
    beta6 = dg.from_blocks(
        [[1, 2], [3, 4, -1], [5, -4, -5, -6], [6], [-2], [-3]], 6
    )
    alpha_beta6 = dg.from_blocks(
        [[1, 4], [2, 3, -1, -4, -5, -6], [5, 6], [-2], [-3]], 6
    )
    # left-congruence failure for the partial-identity semilattice, degree 2
    not_e = {
        "alpha": dg.from_blocks([[1, 2], [-1, -2]], 2),
        "beta": dg.identity(2),
        "theta": dg.from_blocks([[1, -1], [2], [-2]], 2),
    }
    # product escaping the tilde-H class of the identity, degree 3
    h_escape = {
        "alpha": dg.from_blocks([[1, -1, -2], [2, 3, -3]], 3),
        "beta": dg.from_blocks([[1, 2], [-1, -2], [3, -3]], 3),
    }
    # left-congruence failure for block identities in the degree-2 rook monoid
    rook = {
        "alpha": rook_embed([[1, -1]], 2, rook_dots=[2, -2]),
        "beta": dg.identity(3),
        "theta": rook_embed([[2, -2]], 2, rook_dots=[1, -1]),
    }
    return {
        "alpha6": alpha6,
        "beta6": beta6,
        "alpha_beta6": alpha_beta6,
        "not_e": not_e,
        "h_escape": h_escape,
        "rook": rook,
    }


# -- structural characterisations of the natural orders ----------------------
# Each generator lists the diagrams below a in one natural order of P_n from
# a's blocks alone, without testing pairs; verify compares them with
# ``ehresmann.natural_order``.  The pairwise block predicates for the same
# orders are the oracles in tests/oracles.py.


def block_identity_below(a: Partition, side: str):
    """The diagrams x <= a in the block-identity order of ``side`` (x in Fa
    for 'left', x in aF for 'right'): the coarsenings of a that leave each
    lower ('left') or upper ('right') non-transversal of a a block.  The
    other blocks are merged by each restricted growth string over them."""
    n = a.n
    upper, lower = set(a.code[:n]), set(a.code[n:])
    frozen = (lower - upper, upper - lower)[_check_side(side)]
    free = [b for b in range(len(upper | lower)) if b not in frozen]
    out = []
    for merge in equivalences(len(free)):
        label = dict(zip(free, merge))
        label.update((b, -1 - b) for b in frozen)
        out.append(Partition(n, _canonical(label[b] for b in a.code)))
    return out


def partial_identity_below(a: Partition):
    """The diagrams x <= a in the partial-identity order x in Ea: a with
    each set of upper vertices split off as singletons (fresh labels)."""
    n = a.n
    return [
        Partition(n, _canonical(
            2 * n + v if split >> v & 1 else b for v, b in enumerate(a.code)
        ))
        for split in range(1 << n)
    ]
