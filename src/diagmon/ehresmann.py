"""Ehresmann analysis of a finite monoid relative to a chosen semilattice.

Given a monoid S and a semilattice E inside it, this module computes the
identity sets E_L(x), E_R(x), the tilde-equivalences R~ and L~, the axioms
L1-R3 with reproducible failure witnesses, the +/* representative maps, the
natural partial orders, the largest restriction subsemigroups, the E-regular
inverse subsemigroup and the tilde-H classes of the members of E, each
with the engine's verdict on its closure, ``FiniteMonoid.closed``.

Each left-hand notion is coded once and its dual is the same code on the
other side.  Every function that takes a side names it 'left' or 'right'
(``SIDES``): 'left' gives E_L(x), R~, L3 (xE in Ex) and the order x in Ey,
'right' gives E_R(x), L~, R3 (Ex in xE) and x in yE.  R~ and L~ are named
only in the report's ``r_tilde`` and ``l_tilde``.

All of these are read off the products f*x and x*f for f in E: one row
and one column of S per member, composed over the prefix tree of the
members' words and kept as typed rows, 2 bytes an entry; the identity sets
are bitmasks over the members.  L2 and R2 are swept over the certified
generators, and on a monoid of at most ``TABLE_CAP`` elements a failed
sweep is rerun over every theta for the minimal witness.  E is the pair
(S, members), and a memo outside that value keeps both sides' member rows,
tilde labellings and axiom report, which every function here reads.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import combinations, compress, repeat
from operator import eq

from .errors import StateError, ValidationError
from .monoid import (
    TABLE_CAP, FiniteMonoid, _check_indices, _classes_by_key, green
)


class Semilattice(namedtuple("Semilattice", "parent members")):
    """A validated commuting-idempotent subset of a parent monoid.

    Equality, hash and repr read (parent, members) only.  ``_memo``, no
    part of the value and made on first read, keeps each side's member
    rows ('products', side) and tilde labelling ('tilde', side), the axiom
    report ('report') and the hom-sets of C(S, E) ('hom') once computed, as
    ``FiniteMonoid`` keeps its Green structure."""

    @cached_property
    def _memo(self):
        return {}

    @classmethod
    def create(cls, parent, members):
        members = tuple(sorted(set(_check_indices(parent, members))))
        for e in members:
            if parent.mul(e, e) != e:
                raise ValidationError(f"element {e} is not idempotent")
        for e, f in combinations(members, 2):
            if parent.mul(e, f) != parent.mul(f, e):
                raise ValidationError(f"elements {e},{f} do not commute")
        if not parent.closed(members):
            raise ValidationError("not closed: a product escapes the set")
        return cls(parent, members)


def _check_parent(s: FiniteMonoid, e: Semilattice):
    if e.parent is not s:
        raise ValidationError("the semilattice lies in another monoid")


SIDES = ("left", "right")


def _check_side(side):
    """The position of ``side`` in ``SIDES``, the one check of a side."""
    if side not in SIDES:
        raise ValidationError(f"side must be 'left' or 'right', got {side!r}")
    return SIDES.index(side)


def _products(s: FiniteMonoid, e: Semilattice, side: str):
    """The member rows of a side, once per E: for each member f in turn,
    f*y ('left') or y*f ('right') for every y, from ``_typed_rows``."""
    _check_parent(s, e)
    column = _check_side(side) == 1
    if ("products", side) not in e._memo:
        e._memo["products", side] = s._typed_rows(e.members, column)
    return e._memo["products", side]


def _by_element(s: FiniteMonoid, e: Semilattice, side: str):
    """For each x in turn, lazily, the tuple of f*x ('left') or x*f
    ('right') over the members f, read across the member rows."""
    rows = _products(s, e, side)
    return zip(*rows) if rows else repeat((), s.size)


def _identity_keys(s: FiniteMonoid, e: Semilattice, side: str):
    """E_L(x) ('left') or E_R(x) ('right') of every x as a bitmask, bit i
    set when the i-th member fixes x, in one pass over each member row."""
    keys, points = [0] * s.size, range(s.size)
    for i, row in enumerate(_products(s, e, side)):
        bit = 1 << i
        for x in compress(points, map(eq, row, points)):
            keys[x] |= bit
    return keys


def identity_sets(s: FiniteMonoid, e: Semilattice, side: str):
    """E_L(x), the members f of E with f*x = x ('left'), or E_R(x), those
    with x*f = x ('right'), for every x."""
    keys = _identity_keys(s, e, side)
    sets = {
        key: frozenset(f for i, f in enumerate(e.members) if key >> i & 1)
        for key in set(keys)
    }
    return list(map(sets.__getitem__, keys))


def tilde_classes(s: FiniteMonoid, e: Semilattice, side: str):
    """Class ids of R~ ('left': equal E_L(x)) or L~ ('right': equal
    E_R(x)), computed once per E."""
    _check_parent(s, e)
    _check_side(side)
    if ("tilde", side) not in e._memo:
        e._memo["tilde", side] = _classes_by_key(_identity_keys(s, e, side))
    return e._memo["tilde", side]


class EhresmannReport(namedtuple(
    "EhresmannReport", "axioms witnesses r_tilde l_tilde plus star theta_sweep",
    defaults=(None, None, "full"),
)):
    # axioms: name -> bool for L1, L2, R1, R2, L3, R3
    # witnesses: name -> minimal witness tuple for each failed axiom
    # r_tilde, l_tilde: class id per element
    # plus: x -> x+, present iff L1 holds
    # star: x -> x*, present iff R1 holds
    # theta_sweep: 'full' or 'generators'
    __slots__ = ()

    def is_ehresmann(self):
        return all(self.axioms[a] for a in ("L1", "L2", "R1", "R2"))

    def to_json(self):
        return {
            "axioms": dict(sorted(self.axioms.items())),
            "witnesses": {k: list(v) for k, v in sorted(self.witnesses.items())},
            "tilde_class_counts": {
                "r": len(set(self.r_tilde)),
                "l": len(set(self.l_tilde)),
            },
            "plus": self.plus,
            "star": self.star,
            "theta_sweep": self.theta_sweep,
        }


def _unique_member_check(classes, members):
    """L1/R1: each class holds exactly one semilattice member."""
    per_class = {}
    for x in members:
        per_class.setdefault(classes[x], []).append(x)
    for c in sorted(set(classes)):
        got = per_class.get(c, [])
        if len(got) != 1:
            return False, (classes.index(c), tuple(got))
    return True, None


def _congruence_check(classes, thetas, image):
    """One-sided congruence sweep over whole rows or columns, ``image(th)``
    listing th*x (or x*th) for every x.  Returns (ok, witness (th, x, y))
    for the first th and the first y whose image's class differs from that
    of x, the first member of y's class."""
    first = {}
    rep = [first.setdefault(c, x) for x, c in enumerate(classes)]
    for th in thetas:
        img = list(map(classes.__getitem__, image(th)))
        if list(map(img.__getitem__, rep)) != img:
            y = next(y for y, x in enumerate(rep) if img[y] != img[x])
            return False, (th, rep[y], y)
    return True, None


def _sweep(s: FiniteMonoid, classes, actions, line):
    """L2 or R2 over the generators, theta = g_k acting as ``actions[k]``
    (theta*x is ``s.left[k][x]``, x*theta ``s.right[k][x]``), and on a
    monoid of at most ``TABLE_CAP`` elements, when that fails, over every
    theta's ``line``."""
    images = dict(zip(s.generators, actions))
    found = _congruence_check(classes, sorted(images), images.__getitem__)
    if found[0] or s.size > TABLE_CAP:
        return found
    return _congruence_check(classes, range(s.size), line)


def check_axioms(s: FiniteMonoid, e: Semilattice) -> EhresmannReport:
    """Check L1, L2, R1, R2 and the restriction containments L3, R3.

    L2 and R2 are swept over the certified generators (``_sweep``),
    which suffice for one-sided congruences.  On a monoid of at most
    ``TABLE_CAP`` elements ``theta_sweep`` reads 'full': a failed generator
    sweep is rerun over every theta, so the witness is the minimal one over
    all elements.
    The report is computed once per E and shared by every later call.
    """
    _check_parent(s, e)
    if "report" in e._memo:
        return e._memo["report"]
    r_tilde, l_tilde = (tilde_classes(s, e, side) for side in SIDES)
    checks = {
        "L1": _unique_member_check(r_tilde, e.members),
        "R1": _unique_member_check(l_tilde, e.members),
        "L2": _sweep(s, r_tilde, s.left, s.row),
        "R2": _sweep(s, l_tilde, s.right, s.column),
        # restriction containments, tested up to the first x that fails
        "L3": _containment(s, e, "right", "left"),
        "R3": _containment(s, e, "left", "right"),
    }
    axioms = {a: ok for a, (ok, _) in checks.items()}
    e._memo["report"] = EhresmannReport(
        axioms=axioms,
        witnesses={a: w for a, (_, w) in checks.items() if w},
        r_tilde=r_tilde,
        l_tilde=l_tilde,
        plus=_representatives(r_tilde, e) if axioms["L1"] else None,
        star=_representatives(l_tilde, e) if axioms["R1"] else None,
        theta_sweep="generators" if s.size > TABLE_CAP else "full",
    )
    return e._memo["report"]


def _representatives(classes, e: Semilattice):
    rep = {classes[x]: x for x in e.members}
    return [rep[c] for c in classes]


def _contained(s: FiniteMonoid, e: Semilattice, inner: str, outer: str):
    """For each x in turn, lazily, whether x's products on side ``inner``
    all lie among those on side ``outer``: the test of L3 (xE in Ex) at x
    with inner 'right', and of R3 (Ex in xE) with inner 'left'."""
    pairs = zip(_by_element(s, e, inner), _by_element(s, e, outer))
    return (set(outs).issuperset(ins) for ins, outs in pairs)


def _containment(s: FiniteMonoid, e: Semilattice, inner: str, outer: str):
    """L3 or R3 from ``_contained``: the witness (x, f) is the first x that
    fails, with the first member f whose product lies outside."""
    for x, ok in enumerate(_contained(s, e, inner, outer)):
        if not ok:
            outs = {row[x] for row in _products(s, e, outer)}
            rows = zip(e.members, _products(s, e, inner))
            return False, (x, next(f for f, row in rows if row[x] not in outs))
    return True, None


def rest_subsemigroups(s: FiniteMonoid, e: Semilattice):
    """Largest left-, right- and two-sided restriction subsemigroups: the
    x that pass the test of L3, of R3, and of both.

    The one-sided sets are verified closed under the product and to contain
    the semilattice; so is their intersection, the two-sided set.
    """
    rest_l = list(compress(range(s.size), _contained(s, e, "right", "left")))
    rest_r = list(compress(range(s.size), _contained(s, e, "left", "right")))
    for name, sub in (("left", rest_l), ("right", rest_r)):
        if not set(e.members) <= set(sub):
            raise StateError(f"{name} restriction set does not contain E")
        if not s.closed(sub):
            raise StateError(f"{name} restriction set not closed")
    return tuple(rest_l), tuple(rest_r), tuple(sorted({*rest_l} & {*rest_r}))


def reg_e(s: FiniteMonoid, e: Semilattice):
    """E-regular elements: Green-R-related and L-related to members of E."""
    _check_parent(s, e)
    gs = green(s)
    r_of_e = {gs.r_class[x] for x in e.members}
    l_of_e = {gs.l_class[x] for x in e.members}
    return tuple(
        x
        for x in range(s.size)
        if gs.r_class[x] in r_of_e and gs.l_class[x] in l_of_e
    )


def tilde_h_class(idem, s: FiniteMonoid, e: Semilattice):
    """The tilde-H class of a semilattice member, as (members, closed):
    its indices and whether they are closed under the product."""
    _check_parent(s, e)
    _check_indices(s, [idem])
    if idem not in e.members:
        raise ValidationError(f"element {idem} is not in the semilattice")
    key = list(zip(*(tilde_classes(s, e, side) for side in SIDES)))
    cls = tuple(x for x, k in enumerate(key) if k == key[idem])
    return cls, s.closed(cls)


def natural_order(s: FiniteMonoid, e: Semilattice, side: str):
    """below[y] = {x : x <= y} for the natural order of a restriction side:
    x <= y iff x in Ey ('left') or x in yE ('right')."""
    return list(map(frozenset, _by_element(s, e, side)))
