"""Ehresmann analysis of a finite monoid relative to a chosen semilattice.

Given a monoid S and a semilattice E inside it, this module computes the
left/right identity sets E_L(x), E_R(x), the induced tilde-equivalences,
the one-sided congruence axioms with reproducible failure witnesses, the
+/* representative maps, the natural partial orders x <= y iff x in Ey
(resp. yE), the largest restriction subsemigroups, the E-regular inverse
subsemigroup, and the monoid classes of idempotents under the tilde-H
relation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import StateError, ValidationError
from .monoid import FiniteMonoid, _classes_by_key, generates, green


@dataclass(frozen=True)
class Semilattice:
    """A validated commuting-idempotent subset of a parent monoid."""

    parent: FiniteMonoid
    members: tuple

    @classmethod
    def create(cls, parent, members):
        members = tuple(sorted(set(members)))
        for e in members:
            if parent.mul(e, e) != e:
                raise ValidationError(f"element {e} is not idempotent")
        for e in members:
            for f in members:
                if parent.mul(e, f) != parent.mul(f, e):
                    raise ValidationError(f"elements {e},{f} do not commute")
        pair = parent.escape(members)
        if pair is not None:
            raise ValidationError(
                f"not closed: product of {pair[0]},{pair[1]} escapes the set"
            )
        return cls(parent, members)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, x):
        return x in self.members


def e_left(x, e: Semilattice):
    """Members of E that are left identities for x."""
    s = e.parent
    return frozenset(f for f in e.members if s.mul(f, x) == x)


def e_right(x, e: Semilattice):
    s = e.parent
    return frozenset(f for f in e.members if s.mul(x, f) == x)


def tilde_classes(s: FiniteMonoid, e: Semilattice, side: str):
    """Class ids of the tilde-R ('left' identity sets) or tilde-L relation."""
    if side == "r":
        keys = [e_left(x, e) for x in range(s.size)]
    elif side == "l":
        keys = [e_right(x, e) for x in range(s.size)]
    else:
        raise ValidationError(f"side must be 'r' or 'l', got {side!r}")
    return _classes_by_key(keys)


@dataclass
class EhresmannReport:
    axioms: dict  # name -> bool for L1, L2, R1, R2, L3, R3
    witnesses: dict  # name -> minimal witness tuple for each failed axiom
    r_tilde: list  # class id per element
    l_tilde: list
    plus: list | None = None  # x -> x+, present iff L1 holds
    star: list | None = None  # x -> x*, present iff R1 holds
    theta_sweep: str = "full"  # 'full' or 'generators'

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


def _congruence_check(s, classes, thetas, left):
    """One-sided congruence sweep; returns (ok, witness (theta, x, y))."""
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


def check_axioms(s: FiniteMonoid, e: Semilattice, generators=None) -> EhresmannReport:
    """Check L1, L2, R1, R2 and, when the Ehresmann halves hold, L3, R3.

    The congruence sweep ranges over all elements when the monoid has a
    Cayley table, otherwise over a generating set, by default the certified
    ``s.generators`` (sufficient for one-sided congruences).  A supplied
    set that does not generate s raises ValidationError.
    """
    if generators is None:
        generators = s.generators
    elif not generates(s, generators):
        raise ValidationError("the given elements do not generate the monoid")
    r_tilde = tilde_classes(s, e, "r")
    l_tilde = tilde_classes(s, e, "l")
    if s.table is not None:
        thetas, sweep = range(s.size), "full"
    else:  # only an enumerated monoid has no table
        thetas, sweep = sorted(set(generators)), "generators"

    checks = {
        "L1": _unique_member_check(r_tilde, e.members),
        "R1": _unique_member_check(l_tilde, e.members),
        "L2": _congruence_check(s, r_tilde, thetas, left=True),
        "R2": _congruence_check(s, l_tilde, thetas, left=False),
        # restriction containments (checked definitionally, witnesses minimal)
        "L3": _containment_check(s, e, left=True),
        "R3": _containment_check(s, e, left=False),
    }
    report = EhresmannReport(
        axioms={a: ok for a, (ok, _) in checks.items()},
        witnesses={a: w for a, (_, w) in checks.items() if w},
        r_tilde=r_tilde,
        l_tilde=l_tilde,
        theta_sweep=sweep,
    )
    if report.axioms["L1"]:
        report.plus = _representatives(r_tilde, e)
    if report.axioms["R1"]:
        report.star = _representatives(l_tilde, e)
    return report


def _representatives(classes, e: Semilattice):
    rep = {}
    for x in e.members:
        rep[classes[x]] = x
    return [rep[c] for c in classes]


def _containment_check(s, e, left):
    """L3 (xE in Ex) or R3 (Ex in xE) for every x; witness (x, e)."""
    mul = s.mul if left else lambda a, b: s.mul(b, a)
    for x in range(s.size):
        other = {mul(f, x) for f in e.members}
        for f in e.members:  # sorted by Semilattice.create
            if mul(x, f) not in other:
                return False, (x, f)
    return True, None


def rest_subsemigroups(s: FiniteMonoid, e: Semilattice):
    """Largest left-, right- and two-sided restriction subsemigroups.

    Each returned index set is verified closed under the product and to
    contain the semilattice.
    """
    rest_l, rest_r = [], []
    for x in range(s.size):
        xe = {s.mul(x, f) for f in e.members}
        ex = {s.mul(f, x) for f in e.members}
        if xe <= ex:
            rest_l.append(x)
        if ex <= xe:
            rest_r.append(x)
    rest = sorted(set(rest_l) & set(rest_r))
    for name, sub in (("left", rest_l), ("right", rest_r), ("two-sided", rest)):
        if not set(e.members) <= set(sub):
            raise StateError(f"{name} restriction set does not contain E")
        if s.escape(sub) is not None:
            raise StateError(f"{name} restriction set not closed")
    return tuple(rest_l), tuple(rest_r), tuple(rest)


def reg_e(s: FiniteMonoid, e: Semilattice):
    """E-regular elements: Green-R-related and L-related to members of E."""
    gs = green(s)
    r_of_e = {gs.r_class[x] for x in e.members}
    l_of_e = {gs.l_class[x] for x in e.members}
    return tuple(
        x
        for x in range(s.size)
        if gs.r_class[x] in r_of_e and gs.l_class[x] in l_of_e
    )


def tilde_h_class(idem, s: FiniteMonoid, e: Semilattice, r_tilde, l_tilde):
    """The tilde-H class of a semilattice member, with a closure flag.

    ``r_tilde`` and ``l_tilde`` are ``tilde_classes(s, e, "r")`` and
    ``tilde_classes(s, e, "l")``, computed once by the caller.  Returns
    (members, closed, witness) where witness is a product pair escaping the
    class when it is not closed.
    """
    if idem not in e.members:
        raise ValidationError(f"element {idem} is not in the semilattice")
    cls = tuple(
        x
        for x in range(s.size)
        if r_tilde[x] == r_tilde[idem] and l_tilde[x] == l_tilde[idem]
    )
    witness = s.escape(cls)
    return cls, witness is None, witness


def natural_order(s: FiniteMonoid, e: Semilattice, side: str):
    """below[y] = {x : x <= y} for the natural order of a restriction side:
    x <= y iff x in Ey ('left') or x in yE ('right')."""
    if side == "left":
        return [
            frozenset(s.mul(f, y) for f in e.members) for y in range(s.size)
        ]
    if side == "right":
        return [
            frozenset(s.mul(y, f) for f in e.members) for y in range(s.size)
        ]
    raise ValidationError(f"side must be 'left' or 'right', got {side!r}")


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
