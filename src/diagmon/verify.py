"""Verification suites: named checks with pass/fail results.

Each check recomputes a structural fact from first principles (definitional
sweeps on one side, closed-form or combinatorial descriptions on the other)
and reports a named result.  The counting formulas are the closed forms on
the ``zoo.FAMILIES`` records (``Family.size``), which never call the
enumeration pipeline, so size agreement is a two-sided check.

A check is declared once, with ``claim``: a generator of the lines it prints
at one degree n, the degrees it runs at, and any further parts with their
own degrees.  ``claim`` is the one place that caps the degrees at ``nmax``,
calls no part with no degree under the cap, prints "[SKIP] <name>", a
line no summary counts, for a check that printed nothing, and turns a
``StateError`` or ``ValidationError`` into one failed line for the (part,
degree) that raised it, keeping every line before it.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import partial, wraps
from itertools import combinations
from math import factorial

from . import algebra, diagrams as dg, dotout, ehresmann as eh, zoo
from .errors import StateError, ValidationError
from .relations import is_partial_bijection, rel_params
from .monoid import (
    green,
    idempotents,
    is_inverse,
    is_regular,
    minimal_ideal,
    right_zeros,
    same_classes,
    check_embedding,
)


class CheckResult(namedtuple("CheckResult", "name passed detail skipped",
                             defaults=("", False))):
    # skipped: no degree under the cap; counted neither way
    __slots__ = ()

    def line(self):
        status = "SKIP" if self.skipped else "PASS" if self.passed else "FAIL"
        tail = f"  ({self.detail})" if self.detail else ""
        return f"[{status}] {self.name}{tail}"


# What a part is called with, given its declared degrees up to the cap.
_SHAPES = {
    "each": lambda degrees: degrees,  # once per degree
    "top": lambda degrees: degrees[-1:],  # at the largest degree only
    "span": lambda degrees: [degrees] if degrees else [],  # once, all of them
}


def claim(degrees, *more, how="each"):
    """Declare a check by ``lines(n)``, the generator of its results at n.

    ``lines`` runs at ``degrees`` (``None``: once, at any cap), then each
    part ``(lines, degrees[, how])`` of ``more`` at its own; the result is
    the public ``check(nmax=None)``, a list.  A ``StateError`` or
    ``ValidationError``, such as an engine certificate that trips, ends
    only its (part, degree), as one failed line naming the check.
    """

    def declare(lines):
        parts = [(lines, degrees, how), *((*p, "each")[:3] for p in more)]

        @wraps(lines)
        def check(nmax=None):
            out = []
            for part, degs, shape in parts:
                capped = [n for n in degs or () if nmax is None or n <= nmax]
                for arg in [None] if degs is None else _SHAPES[shape](capped):
                    try:
                        for result in part(arg):
                            out.append(result)
                    except (StateError, ValidationError) as exc:
                        out.append(CheckResult(lines.__name__, False, str(exc)))
            if not out:
                out.append(CheckResult(lines.__name__, False, skipped=True))
            return out

        del check.__wrapped__  # its signature is (nmax=None), not the part's
        return check

    return declare


# -- size lines (closed forms on the zoo records, not the diagram pipeline) --


def _sizes(fam, degrees, name=None):
    """One line: the built sizes of a family against its record's
    closed form, ``zoo.FAMILIES[fam].size``."""
    size = zoo.FAMILIES[fam].size
    sizes = [(n, zoo.build(f"{fam}{n}").size) for n in degrees]
    yield CheckResult(
        name or f"{fam} family sizes match the counting formula",
        all(got == size(n) for n, got in sizes),
        " ".join(f"{fam}_{n}={got}" for n, got in sizes),
    )


# -- section 4: partition monoids ---------------------------------------------


@claim(None)
def check_worked_example(_):
    w = zoo.witness_sets()
    a, b, ab = w["alpha6"], w["beta6"], w["alpha_beta6"]
    pa, pb = dg.params(a), dg.params(b)
    ok = (
        dg.multiply(a, b) == ab
        and pa.rank == 1
        and pa.dom == frozenset({2, 3})
        and pb.supp == frozenset({1, 2, 3, 4, 5})
        and pb.cosupp == frozenset({1, 4, 5, 6})
    )
    yield CheckResult("degree-6 product and parameters of the fixed pair", ok)


@claim((2, 3, 4))
def check_block_identity_axioms(n):
    s = zoo.build(f"P{n}")
    f = zoo.semilattice_for("F", f"P{n}")
    rep = eh.check_axioms(s, f)
    yield CheckResult(
        f"P_{n} satisfies L1, L2, R1, R2 for the block identities",
        rep.is_ehresmann(),
        f"sweep={rep.theta_sweep}",
    )


@claim((2,))
def check_partial_identity_failure(_):
    s = zoo.build("P2")
    rep = eh.check_axioms(s, zoo.semilattice_for("E", "P2"))
    w = zoo.witness_sets()["not_e"]
    a, b, t = w["alpha"], w["beta"], w["theta"]
    pa, pb = dg.params(a), dg.params(b)
    ta, tb = dg.multiply(t, a), dg.multiply(t, b)
    at, bt = dg.multiply(a, t), dg.multiply(b, t)
    witness_ok = (
        pa.supp == pb.supp
        and pa.cosupp == pb.cosupp
        and dg.params(ta).supp != dg.params(tb).supp
        and dg.params(at).cosupp != dg.params(bt).cosupp
    )
    ok = not rep.axioms["L2"] and not rep.axioms["R2"] and witness_ok
    yield CheckResult(
        "P_2 fails L2 and R2 for the partial identities, "
        "with the fixed witness triple",
        ok,
    )


@claim((2, 3), how="top")
def check_identity_set_formulas(n):
    s = zoo.build(f"P{n}")
    e = zoo.semilattice_for("E", f"P{n}")
    f = zoo.semilattice_for("F", f"P{n}")
    par = [dg.params(a) for a in s.elements]
    # f is in E_L(x) or E_R(x) by a closed form in f's params p and x's key
    # k, and the induced equivalence is then x and y having equal keys
    in_e, in_f = (lambda p, k: p.dom >= k), (lambda p, k: dg.refines(p.ker, k))
    ok = True
    for sl, side, holds, key in (
        (e, "left", in_e, lambda q: q.supp),
        (e, "right", in_e, lambda q: q.cosupp),
        (f, "left", in_f, lambda q: q.ker),
        (f, "right", in_f, lambda q: q.coker),
    ):
        keys = [key(q) for q in par]
        ok = ok and same_classes(eh.tilde_classes(s, sl, side), keys) and all(
            got == {i for i in sl.members if holds(par[i], k)}
            for got, k in zip(eh.identity_sets(s, sl, side), keys)
        )
    yield CheckResult(
        f"identity sets and induced equivalences in P_{n} match their "
        "closed forms",
        ok,
    )


@claim((2, 3), how="top")
def check_order_characterizations(n):
    s = zoo.build(f"P{n}")
    e = zoo.semilattice_for("E", f"P{n}")
    f = zoo.semilattice_for("F", f"P{n}")
    orders = (
        (eh.natural_order(s, f, "left"),
         lambda y: zoo.block_identity_below(y, "left")),  # x in Fy
        (eh.natural_order(s, f, "right"),
         lambda y: zoo.block_identity_below(y, "right")),  # x in yF
        (eh.natural_order(s, e, "left"),
         zoo.partial_identity_below),  # x in Ey
    )
    ok = all(
        frozenset(s.index[x] for x in below_y(s.decode(y))) == below[y]
        for below, below_y in orders
        for y in range(s.size)
    )
    yield CheckResult(
        f"both natural orders on P_{n} match their block descriptions", ok
    )


def _identity_class_escape(_):
    """The class of the identity for the partial identities is not closed:
    the engine's verdict, and a fixed product that escapes it."""
    p3, e = zoo.build("P3"), zoo.semilattice_for("E", "P3")
    _, closed = eh.tilde_h_class(p3.identity, p3, e)
    w = zoo.witness_sets()["h_escape"]
    a, b = w["alpha"], w["beta"]
    pa, pb = dg.params(a), dg.params(b)
    full = frozenset(range(1, 4))
    pab = dg.params(dg.multiply(a, b))
    ok = (
        not closed
        and pa.supp == pa.cosupp == full
        and pb.supp == pb.cosupp == full
        and not (pab.supp == pab.cosupp == full)
    )
    yield CheckResult(
        "the partial-identity class of the identity of P_3 is not "
        "closed (fixed escaping product)",
        ok,
    )


@claim((2, 3), (_identity_class_escape, (3,)))
def check_regular_subsemigroups(n):
    s = zoo.build(f"P{n}")
    e = zoo.semilattice_for("E", f"P{n}")
    f = zoo.semilattice_for("F", f"P{n}")
    regular_f, regular_e = eh.reg_e(s, f), eh.reg_e(s, e)
    j_set = frozenset(zoo.build(f"J{n}").elements)
    i_set = frozenset(zoo.build(f"I{n}").elements)
    ok = (
        frozenset(s.decode(i) for i in regular_f) == j_set
        and frozenset(s.decode(i) for i in regular_e) == i_set
        and is_inverse(s.submonoid(regular_f))
        and is_inverse(s.submonoid(regular_e))
    )
    # each monoid class of a block identity is a partial-bijection monoid
    i_size = zoo.FAMILIES["I"].size
    for eps in zoo.equivalences(n):
        idx = s.index[dg.id_equiv(eps)]
        members, closed = eh.tilde_h_class(idx, s, f)
        if not closed or len(members) != i_size(len(set(eps))):
            ok = False
    yield CheckResult(
        f"regular parts of P_{n} are the expected inverse submonoids "
        "and the block-identity classes close up with the right sizes",
        ok,
    )


@claim((2, 3))
def check_restriction_subsemigroups(n):
    s = zoo.build(f"P{n}")
    f = zoo.semilattice_for("F", f"P{n}")
    rest_l, rest_r, rest = eh.rest_subsemigroups(s, f)
    nabla = (0,) * n
    full = frozenset(range(1, n + 1))
    # only the four parameters read here are kept, not a DiagramParams each
    dom, ker, codom, coker = zip(*(
        (q.dom, q.ker, q.codom, q.coker) for q in map(dg.params, s.elements)
    ))
    by_shape_r = frozenset(
        x for x in range(s.size) if dom[x] == full or ker[x] == nabla
    )
    by_shape_l = frozenset(
        x for x in range(s.size) if codom[x] == full or coker[x] == nabla
    )
    rr_set = frozenset(zoo.build(f"RR{n}").elements)
    j_set = frozenset(zoo.build(f"J{n}").elements)
    z = s.index[dg.zeta(n)]
    ok = (
        frozenset(rest_r) == by_shape_r
        and frozenset(rest_l) == by_shape_l
        and frozenset(s.decode(x) for x in rest_r) == rr_set
        and frozenset(s.decode(x) for x in rest) == j_set | {dg.zeta(n)}
        and len(rest) == zoo.FAMILIES["J"].size(n) + 1  # |J_n u {zeta}|
        and all(s.mul(x, z) == z and s.mul(z, x) == z for x in rest)
    )
    yield CheckResult(
        f"largest restriction subsemigroups of P_{n} match their "
        "block descriptions, with the two-block diagram as zero",
        ok,
    )


def _rank_chain(fam, n):
    s = zoo.build(f"{fam}{n}")
    gs = green(s)
    # only the five parameters read here are kept, not a DiagramParams each
    dom, ker, codom, coker, rank = zip(*(
        (q.dom, q.ker, q.codom, q.coker, q.rank)
        for q in map(dg.params, s.elements)
    ))
    ok = (
        is_regular(s)
        and same_classes(gs.r_class, zip(dom, ker))
        and same_classes(gs.l_class, zip(codom, coker))
        and same_classes(gs.d_class, rank)
        and gs.d_equals_j
    )
    # D-classes form a chain, i.e. the order is total
    ok = ok and all(
        a in bs or b in gs.below[a]
        for b, bs in enumerate(gs.below)
        for a in range(len(gs.below))
    )
    # group cells in the rank-mu class have size mu!
    h_size = Counter(gs.h_class)
    ok = ok and all(
        h_size[gs.h_class[x]] == factorial(rank[x])
        for x in idempotents(s)
    )
    # right zeros and the minimal ideal
    zeros = right_zeros(s)
    low = 1 if fam == "Pfd" else 0
    nabla = (0,) * n
    bottom = frozenset(
        x
        for x in range(s.size)
        if rank[x] == low and ker[x] == nabla
    )
    ok = ok and zeros == bottom and minimal_ideal(s) == bottom
    yield CheckResult(
        f"{'full-domain' if fam == 'Pfd' else 'right-restriction'}"
        f" monoid at degree {n}: regular, rank-chain classes, "
        "group cells of size rank!, bottom right zeros",
        ok,
    )


def _rr4_eggbox(_):
    rr4 = zoo.build("RR4")
    dot = dotout.emit_eggbox(rr4, title="RR4")
    # five clusters, and the D-classes below each have the sizes 1..5: a chain
    yield CheckResult(
        "degree-4 right-restriction egg-box has 5 chained clusters",
        dot.count("subgraph") == 5
        and sorted(map(len, green(rr4).below)) == [1, 2, 3, 4, 5],
    )


@claim((2, 3, 4), (partial(_rank_chain, "RR"), (2, 3, 4)), (_rr4_eggbox, (4,)))
def check_rank_chain_structure(n):
    return _rank_chain("Pfd", n)


def _rank_split(degrees):
    """RR_n is the disjoint union of Pfd_n and the rank-0 floor D0_n."""
    ok = True
    for n in degrees:
        rr, pfd, d0 = (set(zoo.build(f"{fam}{n}").elements)
                       for fam in ("RR", "Pfd", "D0"))
        ok = (ok and rr == pfd | d0 and pfd.isdisjoint(d0)
              and len(d0) == zoo.FAMILIES["D0"].size(n))
    yield CheckResult(
        "right-restriction monoid splits as full-domain part plus the "
        "rank-0 floor",
        ok,
    )


@claim((0, 1, 2, 3, 4), (partial(_sizes, "I"), (0, 1, 2, 3, 4), "span"),
       (partial(_sizes, "J"), (0, 1, 2, 3, 4), "span"),
       (_rank_split, (1, 2, 3, 4), "span"), how="span")
def check_partition_sizes(degrees):
    return _sizes("P", degrees)


# -- section 3: binary relations ----------------------------------------------


@claim((1, 2, 3))
def check_relation_suite(n):
    s = zoo.build(f"BX{n}")
    e = zoo.semilattice_for("E", f"BX{n}")
    rep = eh.check_axioms(s, e)
    # tilde classes are exactly equality of domain / codomain
    par = [rel_params(a) for a in s.elements]
    ok = (
        rep.is_ehresmann()
        and same_classes(rep.r_tilde, [p.dom for p in par])
        and same_classes(rep.l_tilde, [p.codom for p in par])
    )
    yield CheckResult(
        f"all binary relations on {n} points: Ehresmann for partial "
        "identities, classes given by domain and codomain",
        ok,
    )
    rest_l, rest_r, rest = eh.rest_subsemigroups(s, e)
    pt_set = frozenset(zoo.build(f"PT{n}").elements)
    i_set = frozenset(a for a in s.elements if is_partial_bijection(a))
    got_l = frozenset(s.decode(x) for x in rest_l)
    got_two = frozenset(s.decode(x) for x in rest)
    reg = frozenset(s.decode(x) for x in eh.reg_e(s, e))
    yield CheckResult(
        f"degree-{n} relations: largest left-restriction part is the "
        "partial functions, two-sided and regular parts are the "
        "partial bijections",
        got_l == pt_set and got_two == i_set and reg == i_set,
    )
    pt = zoo.build(f"PT{n}")
    ept = zoo.semilattice_for("E", f"PT{n}")
    flag, _ = algebra.is_ei(pt, ept)
    yield CheckResult(
        f"endomorphisms in the partial-function category at degree "
        f"{n} are all invertible",
        flag,
    )


@claim((1, 2, 3, 4), (partial(_sizes, "PT"), (1, 2, 3, 4), "span"),
       (partial(_sizes, "BX"), (1, 2, 3), "span"), how="span")
def check_relation_sizes(degrees):
    return _sizes("T", degrees)


# -- section 2: transform and radical ------------------------------------------


def _transform(fam, kind, sides, n):
    name = f"{fam}{n}"
    s = zoo.build(name)
    e = zoo.semilattice_for(kind, name)
    for side in sides:
        label = (
            f"{name}, {side} order: basis transform is multiplicative, "
            "unitriangular, inverted by its order's Mobius matrix"
        )
        try:  # StateError unless Z is unitriangular and Z * M = identity
            ok = algebra.verify_stein(s, e, side)
            m = algebra.mobius_inverse(algebra.natural_order(s, e, side))
        except StateError as exc:
            yield CheckResult(label, False, str(exc))
        else:
            yield CheckResult(label, ok and len(m) == s.size)


@claim((2, 3), (partial(_transform, "Pfd", "F", ("right",)), (2, 3)),
       (partial(_transform, "I", "E", ("left", "right")), (2,)))
def check_transform_isomorphism(n):
    return _transform("PT", "E", ("left",), n)


def _semisimple(fam, kind, n):
    name = f"{fam}{n}"
    s = zoo.build(name)
    e = zoo.semilattice_for(kind, name)
    reg = eh.reg_e(s, e)
    label = (
        f"{name}: semigroup algebra modulo its radical has dimension "
        f"{len(reg)}, and the regular part's algebra is semisimple"
    )
    try:  # StateError unless every endomorphism is invertible
        rad = algebra.ei_radical_dim(s, e)
    except StateError as exc:
        yield CheckResult(label, False, str(exc))
        return
    reg_rad = algebra.radical_dim(
        algebra.RationalAlgebra.of_monoid(s.submonoid(reg))
    )
    yield CheckResult(
        label, s.size - rad == len(reg) and reg_rad == 0,
        f"dim={s.size} radical={rad}",
    )


@claim((2, 3), (partial(_semisimple, "Pfd", "F"), (2,)))
def check_semisimple_dimensions(n):
    return _semisimple("PT", "E", n)


# -- section 5: Brauer and rook monoids ----------------------------------------


@claim((2,))
def check_brauer_failure(_):
    s = zoo.build("PB2")
    rep = eh.check_axioms(s, zoo.semilattice_for("E", "PB2"))
    w = zoo.witness_sets()["not_e"]
    ok = not rep.axioms["L2"] and all(x in s.index for x in w.values())
    yield CheckResult(
        "partial Brauer monoid at degree 2 fails the left-congruence "
        "axiom, with the same degree-2 witnesses inside it",
        ok,
    )


@claim((1, 2, 3))
def check_brauer_regular_part(n):
    s = zoo.build(f"PB{n}")
    e = zoo.semilattice_for("E", f"PB{n}")
    reg = frozenset(s.decode(x) for x in eh.reg_e(s, e))
    i_set = frozenset(zoo.build(f"I{n}").elements)
    ok = reg == i_set
    # the class of each partial identity has double-factorial size
    for k in range(n + 1):
        for c in combinations(range(1, n + 1), k):
            idx = s.index[dg.id_subset(n, c)]
            members, _ = eh.tilde_h_class(idx, s, e)
            if len(members) != zoo.FAMILIES["B"].size(k):
                ok = False
    yield CheckResult(
        f"partial Brauer monoid at degree {n}: regular part is the "
        "partial bijections, identity classes have double-factorial "
        "sizes",
        ok,
    )


def _rook_axioms(n):
    rep = eh.check_axioms(zoo.build(f"RP{n}"), zoo.semilattice_for("G", f"RP{n}"))
    yield CheckResult(
        f"rook monoid at degree {n} is Ehresmann for the enlarged "
        "block identities",
        rep.is_ehresmann(),
    )


def _rook_regular_part(n):
    rp = zoo.build(f"RP{n}")
    g = zoo.semilattice_for("G", f"RP{n}")
    reg = frozenset(rp.decode(x) for x in eh.reg_e(rp, g))
    rj = frozenset(zoo.build(f"RJ{n}").elements)
    yield CheckResult(
        f"regular part of the rook monoid at degree {n} is its "
        "full-domain full-codomain submonoid",
        reg == rj,
    )


def _rook_witness(_):
    rp = zoo.build("RP2")
    f = zoo.semilattice_for("F", "RP2")
    w = zoo.witness_sets()["rook"]
    a, b, t = (rp.index[w[k]] for k in ("alpha", "beta", "theta"))
    e_l = eh.identity_sets(rp, f, "left")
    ok = e_l[a] == e_l[b] and e_l[rp.mul(t, a)] != e_l[rp.mul(t, b)]
    yield CheckResult(
        "lifted block identities fail left-congruence in the "
        "degree-2 rook monoid (fixed witness triple)",
        ok,
    )


@claim((1, 2, 3), (_rook_axioms, (1, 2)), (_rook_regular_part, (1, 2, 3)),
       (_rook_witness, (2,)))
def check_rook_suite(n):
    first, second = zoo.tower_maps(n)
    pn = zoo.build(f"P{n}")
    rp = zoo.build(f"RP{n}")
    pn1 = zoo.build(f"P{n + 1}")
    yield CheckResult(
        f"tower embeddings at degree {n} are injective homomorphisms",
        check_embedding(first, pn, rp) and check_embedding(second, rp, pn1),
    )


@claim((1, 2, 3, 4), how="span")
def check_brauer_sizes(degrees):
    return _sizes(
        "B", degrees, "Brauer family sizes match the double factorials"
    )


# -- suite driver --------------------------------------------------------------


SUITES = {
    "2": (check_transform_isomorphism, check_semisimple_dimensions),
    "3": (check_relation_suite, check_relation_sizes),
    "4": (
        check_worked_example,
        check_block_identity_axioms,
        check_partial_identity_failure,
        check_identity_set_formulas,
        check_order_characterizations,
        check_regular_subsemigroups,
        check_restriction_subsemigroups,
        check_rank_chain_structure,
        check_partition_sizes,
    ),
    "5": (
        check_brauer_failure,
        check_brauer_regular_part,
        check_rook_suite,
        check_brauer_sizes,
    ),
}


def run_suite(section, nmax=None):
    """Run one numbered suite (or 'all'); returns a list of CheckResults."""
    if section == "all":
        sections = SUITES
    elif section in SUITES:
        sections = (section,)
    else:
        raise ValidationError(f"unknown suite {section!r}")
    if nmax is not None and (type(nmax) is not int or nmax < 0):
        raise ValidationError(f"degree cap {nmax!r} is not an integer >= 0")
    return [r for sec in sections for check in SUITES[sec] for r in check(nmax)]
