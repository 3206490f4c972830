"""Named constructors for the diagram and relation monoids under study.

A membership test defines each family, and closure under the product is a
checked fact.  ``froidure_pin`` enumerates P_n from its standard
generators, each of which acts on a diagram by relabelling its lower row,
into the order of ``partition_universe(n)``, and BX_n and PT_n from
generators into the order of their relation universes.  Every other
diagram family is an index subset of one P_n, which
``FiniteMonoid.submonoid`` turns into a monoid of the same kind: greedy
generators, right and left graphs, and under the table cap the table rows
kept as they are read.  One pass per degree (``family_cuts``) reads each
diagram's code, not its parameters: every membership test is a fact about
the sets of upper and lower block labels, the block sizes or the absorbing
block.
Rook diagrams of degree n are represented by their image in the
degree-(n+1) partition monoid, with the extra point playing the role of
the absorbing vertex, so rook and partition diagrams share one product.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from . import diagrams as dg
from . import relations as rel
from .diagrams import Partition, SetPartition, _canonical
from .errors import ResourceCapError, ValidationError
from .ehresmann import Semilattice
from .monoid import FiniteMonoid, froidure_pin

FAMILIES = (
    "P", "B", "PB", "RP", "I", "J", "T", "PT", "Pfd", "Pfcd", "Pfk",
    "RR", "LL", "RJ", "BX", "D0", "D1",
)

ROOK_FAMILIES = ("RP", "RJ")

# the most elements a family's universe may have: Bell(8) = |P_4|
UNIVERSE_BUDGET = 4140


@lru_cache(maxsize=None)
def stirling2(n, k):
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def bell(n):
    return sum(stirling2(n, k) for k in range(n + 1))


def _universe_size(family, n):
    """The size of the universe a family of degree n is enumerated in or
    cut from: BX_n, PT_n, or P_n (P_(n+1) for a rook family)."""
    if family == "BX":
        return 2 ** (n * n)
    if family == "PT":
        return (n + 1) ** n
    return bell(2 * (n + (family in ROOK_FAMILIES)))


@dataclass(frozen=True)
class FamilySpec:
    family: str
    n: int

    @classmethod
    def parse(cls, name: str) -> "FamilySpec":
        # longest family prefix wins (D0/D1 contain a digit themselves)
        for fam in sorted(FAMILIES, key=len, reverse=True):
            digits = name[len(fam):]
            if name.startswith(fam) and re.fullmatch(r"\d+", digits):
                try:
                    return cls(fam, int(digits))
                except ValueError:  # more digits than int() converts
                    raise ResourceCapError(
                        f"{fam}_n with {len(digits)} digits exceeds the "
                        f"element budget", UNIVERSE_BUDGET,
                    ) from None
        raise ValidationError(f"unknown family name {name!r}")

    def __post_init__(self):
        # universes grow with n, so walking up never sizes a huge n itself
        for k in range(self.n + 1):
            if _universe_size(self.family, k) > UNIVERSE_BUDGET:
                raise ResourceCapError(
                    f"{self.family}_n from degree {k} exceeds the element "
                    f"budget", UNIVERSE_BUDGET,
                )

    def __str__(self):
        return f"{self.family}{self.n}"


# -- element universes -------------------------------------------------------


def set_partition_codes(size):
    """All canonical block-id sequences (restricted growth strings)."""
    out = []

    def extend(prefix, used):
        if len(prefix) == size:
            out.append(tuple(prefix))
            return
        for b in range(used + 1):
            prefix.append(b)
            extend(prefix, used + (1 if b == used else 0))
            prefix.pop()

    extend([], 0)
    return out


@lru_cache(maxsize=None)
def partition_universe(n):
    """All partition diagrams of degree n."""
    return tuple(Partition(n, code) for code in set_partition_codes(2 * n))


@lru_cache(maxsize=None)
def relation_universe(n):
    return tuple(
        rel.BinaryRelation(n, rows) for rows in _cartesian_rows(n, n)
    )


def _cartesian_rows(count, width):
    if count == 0:
        yield ()
        return
    for rest in _cartesian_rows(count - 1, width):
        for row in range(1 << width):
            yield rest + (row,)


@lru_cache(maxsize=None)
def equivalences(n):
    """All set partitions of {1..n}, i.e. all equivalences."""
    return tuple(SetPartition(n, code) for code in set_partition_codes(n))


# -- family cuts --------------------------------------------------------------


@lru_cache(maxsize=None)
def family_cuts(n):
    """Each diagram family cut from P_n, as the sorted tuple of its
    positions in ``partition_universe(n)``, keyed by family ('RP' and 'RJ'
    are the rook families of degree n - 1).

    Every membership test reads the code alone.  With U and L the sets of
    upper and lower block labels: dom is full iff U <= L, codom is full iff
    L <= U, the kernel is discrete iff |U| = n and universal iff |U| <= 1
    (the cokernel likewise from L), and there is no transversal iff U and L
    are disjoint.  Block sizes come from ``code.count``, and the rook test
    is that the extra points n and n' share a block.  One pass groups the
    diagrams by these facts, and each family takes the groups its test
    admits."""
    groups = {}
    for i, a in enumerate(partition_universe(n)):
        code = a.code
        upper, lower = set(code[:n]), set(code[n:])
        sizes = set(map(code.count, upper | lower))
        key = (
            len(upper), len(lower), upper <= lower, lower <= upper,
            upper.isdisjoint(lower), sizes <= {2}, sizes <= {1, 2},
            n >= 1 and code[n - 1] == code[2 * n - 1],
        )
        groups.setdefault(key, []).append(i)
    cuts = {}
    for (ku, kl, dom, codom, none, brauer, partial, rook), kept in (
        groups.items()
    ):
        member = {
            "B": brauer, "PB": partial, "I": ku == kl == n,
            "J": dom and codom, "T": dom and kl == n, "Pfd": dom,
            "Pfcd": codom, "Pfk": ku <= 1, "RR": dom or ku <= 1,
            "LL": codom or kl <= 1, "D0": none and ku <= 1,
            "D1": dom and ku <= 1, "RP": rook, "RJ": rook and dom and codom,
        }
        for fam, test in member.items():
            cuts.setdefault(fam, []).extend(kept if test else ())
    if n == 0:  # no extra point to absorb rook dots at degree 0
        del cuts["RP"], cuts["RJ"]
    return {fam: tuple(sorted(kept)) for fam, kept in cuts.items()}


def family_cut(spec: FamilySpec):
    """The positions of a diagram family in the universe it is cut from:
    ``partition_universe(n)``, or ``partition_universe(n + 1)`` for a rook
    family of degree n."""
    rook = spec.family in ROOK_FAMILIES
    return family_cuts(spec.n + rook)[spec.family]


@lru_cache(maxsize=None)
def partial_functions(n):
    """PT_n: the relations on n points in which each point has at most one
    image, listed directly in ``relation_universe(n)`` order (each row
    bitmask is 0 or one bit, taken in increasing order)."""
    rows = (0,) + tuple(1 << j for j in range(n))
    return tuple(rel.BinaryRelation(n, r) for r in product(rows, repeat=n))


# -- builders ----------------------------------------------------------------


def partition_actions(n):
    """x -> x*g for each g of the standard generating set of P_n, as
    relabellings of x's lower row: a transposition s_i swaps lower points
    i and i+1, the partial identity on {1..n-1} gives lower point n a fresh
    label, and the block identity of {n-1, n} merges the blocks of lower
    points n-1 and n.  The tests certify each action against the product
    with its generator, from the oracle generating set in tests/oracles.py."""

    def swap(i):
        u, v = n + i - 1, n + i

        def act(x):
            code = list(x.code)
            code[u], code[v] = code[v], code[u]
            return Partition(n, _canonical(code))

        return act

    def isolate(x):
        return Partition(n, _canonical(x.code[:-1] + (2 * n,)))

    def merge(x):
        old, new = x.code[-1], x.code[-2]
        return Partition(n, _canonical(new if b == old else b for b in x.code))

    actions = [swap(i) for i in range(1, n)]
    if n >= 1:
        actions.append(isolate)
    if n >= 2:
        actions.append(merge)
    return actions


@lru_cache(maxsize=None)
def build(name) -> FiniteMonoid:
    """Build a named monoid, e.g. 'P3', 'RR4', 'BX2', 'RJ2'.

    P_n is enumerated by ``froidure_pin`` from the actions of its standard
    generators (``partition_actions``), into ``partition_universe(n)``
    order; reaching all Bell(2n) diagrams
    certifies the generating set and closure.  Every other diagram family
    is an index subset of one P_n, cut by ``family_cut`` and made a monoid
    by ``FiniteMonoid.submonoid``.  Relation families are enumerated from
    ``relation_generators``; reaching all of BX_n's relations, or all of
    PT_n's partial functions, certifies the generators and closure.
    """
    spec = FamilySpec.parse(str(name))
    fam, n = spec.family, spec.n
    if fam == "P":
        return froidure_pin(
            partition_actions(n), lambda x, act: act(x), dg.identity(n),
            universe=partition_universe(n),
        )
    if fam in ("BX", "PT"):
        universe = relation_universe(n) if fam == "BX" else partial_functions(n)
        return froidure_pin(
            relation_generators(fam, n), rel.compose, rel.identity_rel(n),
            universe=universe,
        )
    return build(f"P{n + (fam in ROOK_FAMILIES)}").submonoid(family_cut(spec))


SEMILATTICE_KINDS = ("E", "F", "G")


def _check_kind(kind, relations):
    """Reject an unknown semilattice kind, or one relations do not have."""
    if kind not in SEMILATTICE_KINDS:
        raise ValidationError(f"unknown semilattice kind {kind!r}")
    if relations and kind != "E":
        raise ValidationError(f"semilattice {kind} undefined for relations")


def semilattice_for(kind: str, name: str) -> Semilattice:
    """The semilattice of partial identities (E) or block identities (F)
    of a family given by name, or of block identities over every point of
    its diagrams (G), a rook monoid's absorbing point included.  In a rook
    monoid of degree n, E and F are taken at degree n and lifted.  A kind
    the family does not have is rejected before the family is built."""
    spec = FamilySpec.parse(str(name))  # over the budget: fails first
    relations = spec.family in ("BX", "PT")
    _check_kind(kind, relations)
    parent = build(str(name))
    n, rook = spec.n, spec.family in ROOK_FAMILIES
    if kind == "E":
        ident = rel.partial_identity if relations else dg.id_subset
        members = [
            ident(n, c)
            for k in range(n + 1)
            for c in combinations(range(1, n + 1), k)
        ]
    else:
        members = [
            dg.id_equiv(e) for e in equivalences(n + (rook and kind == "G"))
        ]
    if rook and kind != "G":
        members = [lift_to_rook(x) for x in members]
    try:
        idx = [parent.index[x] for x in members]
    except KeyError:
        raise ValidationError(
            f"semilattice {kind} is not contained in the given monoid"
        ) from None
    return Semilattice.create(parent, idx)


def relation_generators(family, n):
    """Generators of PT_n ('PT'): the adjacent transpositions, the partial
    identity on {1..n-1} and the map fixing 1..n-1 that sends n to n-1.
    BX_n ('BX', n <= 3) adds 1 ∪ {(1,2)} and, at n = 3, one more relation,
    without which the closure has 506 of the 512 relations."""
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
    n = a.n
    return dg.from_blocks(list(a.blocks()) + [(n + 1, -(n + 1))], n + 1)


def tower_maps(n):
    """Index maps for the embeddings P_n -> RP_n -> P_{n+1}."""
    pn = build(f"P{n}")
    rp = build(f"RP{n}")
    pn1 = build(f"P{n + 1}")
    first = [rp.index[lift_to_rook(a)] for a in pn.elements]
    second = [pn1.index[a] for a in rp.elements]
    return first, second


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
    frozen = lower - upper if side == "left" else upper - lower
    free = [b for b in range(len(upper | lower)) if b not in frozen]
    out = []
    for merge in equivalences(len(free)):
        label = dict(zip(free, merge.code))
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
