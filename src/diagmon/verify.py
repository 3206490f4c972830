"""Verification suites: named checks with pass/fail results.

Each check recomputes a structural fact from first principles (definitional
sweeps on one side, closed-form or combinatorial descriptions on the other)
and reports a named result.  The counting formulas here are independent of
the enumeration pipeline, so size agreement is a two-sided check.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial

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

SECTIONS = ("2", "3", "4", "5")


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        tail = f"  ({self.detail})" if self.detail else ""
        return f"[{status}] {self.name}{tail}"


def _cap(natural, nmax):
    return natural if nmax is None else min(natural, nmax)


# -- counting oracles (combinatorial formulas, not the diagram pipeline) -----


def double_factorial_odd(n):
    """(2n - 1)!! with the empty-product convention at n = 0."""
    out = 1
    for k in range(3, 2 * n, 2):
        out *= k
    return out


def expected_size(family, n):
    if family == "P":
        return zoo.bell(2 * n)
    if family == "I":
        return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))
    if family == "J":
        return sum(
            zoo.stirling2(n, k) ** 2 * factorial(k) for k in range(n + 1)
        )
    if family == "B":
        return double_factorial_odd(n)
    if family == "T":
        return n**n
    if family == "PT":
        return (n + 1) ** n
    if family == "BX":
        return 2 ** (n * n)
    if family == "D0":
        return zoo.bell(n)
    raise ValidationError(f"no counting formula for family {family}")


# -- section 4: partition monoids ---------------------------------------------


def check_worked_example(nmax=None):
    w = zoo.witness_sets()
    a, b, ab = w["alpha6"], w["beta6"], w["alpha_beta6"]
    pa, pb = dg.params(a), dg.params(b)
    ok = (
        dg.multiply(a, b) == ab
        and pa.rank == 1
        and pa.dom.members == frozenset({2, 3})
        and pb.supp.members == frozenset({1, 2, 3, 4, 5})
        and pb.cosupp.members == frozenset({1, 4, 5, 6})
    )
    return [CheckResult("degree-6 product and parameters of the fixed pair", ok)]


def check_block_identity_axioms(nmax=None):
    out = []
    for n in range(2, _cap(4, nmax) + 1):
        s = zoo.build(f"P{n}")
        f = zoo.semilattice_for("F", f"P{n}")
        rep = eh.check_axioms(s, f)
        out.append(
            CheckResult(
                f"P_{n} satisfies L1, L2, R1, R2 for the block identities",
                rep.is_ehresmann(),
                f"sweep={rep.theta_sweep}",
            )
        )
    return out


def check_partial_identity_failure(nmax=None):
    if _cap(2, nmax) < 2:
        return [CheckResult("degree-2 congruence failure (skipped)", True)]
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
    return [
        CheckResult(
            "P_2 fails L2 and R2 for the partial identities, "
            "with the fixed witness triple",
            ok,
        )
    ]


def check_identity_set_formulas(nmax=None):
    n = _cap(3, nmax)
    if n < 2:
        return [CheckResult("identity-set formulas (skipped)", True)]
    s = zoo.build(f"P{n}")
    e = zoo.semilattice_for("E", f"P{n}")
    f = zoo.semilattice_for("F", f"P{n}")
    par = [dg.params(a) for a in s.elements]
    closed_forms = (
        (e, "left", lambda p, q: p.dom.members >= q.supp.members),
        (e, "right", lambda p, q: p.dom.members >= q.cosupp.members),
        (f, "left", lambda p, q: p.ker.refines(q.ker)),
        (f, "right", lambda p, q: p.ker.refines(q.coker)),
    )
    ok = all(
        got == {i for i in sl.members if holds(par[i], q)}
        for sl, side, holds in closed_forms
        for got, q in zip(eh.identity_sets(s, sl, side), par)
    )
    # the induced equivalences then only depend on supp/cosupp/ker/coker
    ok = ok and all(
        same_classes(eh.tilde_classes(s, sl, side), [key(q) for q in par])
        for sl, side, key in (
            (e, "r", lambda q: q.supp),
            (e, "l", lambda q: q.cosupp),
            (f, "r", lambda q: q.ker),
            (f, "l", lambda q: q.coker),
        )
    )
    return [
        CheckResult(
            f"identity sets and induced equivalences in P_{n} match their "
            "closed forms",
            ok,
        )
    ]


def check_order_characterizations(nmax=None):
    n = _cap(3, nmax)
    if n < 2:
        return [CheckResult("order characterizations (skipped)", True)]
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
    return [
        CheckResult(
            f"both natural orders on P_{n} match their block descriptions",
            ok,
        )
    ]


def check_regular_subsemigroups(nmax=None):
    out = []
    for n in range(2, _cap(3, nmax) + 1):
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
        for eps in zoo.equivalences(n):
            idx = s.index[dg.id_equiv(eps)]
            members, closed, _ = eh.tilde_h_class(idx, s, f)
            if not closed or len(members) != expected_size(
                "I", eps.num_classes()
            ):
                ok = False
        out.append(
            CheckResult(
                f"regular parts of P_{n} are the expected inverse submonoids "
                "and the block-identity classes close up with the right sizes",
                ok,
            )
        )
    # the class of the identity for the partial identities is not closed
    if _cap(3, nmax) >= 3:
        s = zoo.build("P3")
        w = zoo.witness_sets()["h_escape"]
        a, b = w["alpha"], w["beta"]
        pa, pb = dg.params(a), dg.params(b)
        full = frozenset(range(1, 4))
        pab = dg.params(dg.multiply(a, b))
        ok = (
            pa.supp.members == pa.cosupp.members == full
            and pb.supp.members == pb.cosupp.members == full
            and not (pab.supp.members == pab.cosupp.members == full)
        )
        out.append(
            CheckResult(
                "the partial-identity class of the identity of P_3 is not "
                "closed (fixed escaping product)",
                ok,
            )
        )
    return out


def check_restriction_subsemigroups(nmax=None):
    out = []
    for n in range(2, _cap(3, nmax) + 1):
        s = zoo.build(f"P{n}")
        f = zoo.semilattice_for("F", f"P{n}")
        rest_l, rest_r, rest = eh.rest_subsemigroups(s, f)
        nabla = dg.SetPartition.universal(n)
        full = frozenset(range(1, n + 1))
        par = [dg.params(a) for a in s.elements]
        by_shape_r = frozenset(
            x
            for x, q in enumerate(par)
            if q.dom.members == full or q.ker == nabla
        )
        by_shape_l = frozenset(
            x
            for x, q in enumerate(par)
            if q.codom.members == full or q.coker == nabla
        )
        rr_set = frozenset(zoo.build(f"RR{n}").elements)
        j_set = frozenset(zoo.build(f"J{n}").elements)
        z = s.index[dg.zeta(n)]
        ok = (
            frozenset(rest_r) == by_shape_r
            and frozenset(rest_l) == by_shape_l
            and frozenset(s.decode(x) for x in rest_r) == rr_set
            and frozenset(s.decode(x) for x in rest) == j_set | {dg.zeta(n)}
            and len(rest) == expected_size("J", n) + 1  # |J_n u {zeta}|
            and all(
                s.mul(x, z) == z and s.mul(z, x) == z for x in rest
            )
        )
        out.append(
            CheckResult(
                f"largest restriction subsemigroups of P_{n} match their "
                "block descriptions, with the two-block diagram as zero",
                ok,
            )
        )
    return out


def check_rank_chain_structure(nmax=None):
    out = []
    for fam in ("Pfd", "RR"):
        for n in range(2, _cap(4, nmax) + 1):
            s = zoo.build(f"{fam}{n}")
            gs = green(s)
            par = [dg.params(a) for a in s.elements]
            ok = (
                is_regular(s)
                and same_classes(gs.r_class, [(q.dom, q.ker) for q in par])
                and same_classes(gs.l_class, [(q.codom, q.coker) for q in par])
                and same_classes(gs.d_class, [q.rank for q in par])
                and gs.d_equals_j
            )
            # D-classes form a chain, i.e. the order is total
            d_ids = set(gs.d_class)
            ok = ok and all(
                (a, b) in gs.d_order or (b, a) in gs.d_order
                for a in d_ids
                for b in d_ids
            )
            # group cells in the rank-mu class have size mu!
            h_size = Counter(gs.h_class)
            ok = ok and all(
                h_size[gs.h_class[x]] == factorial(par[x].rank)
                for x in idempotents(s)
            )
            # right zeros and the minimal ideal
            zeros = right_zeros(s)
            low = 1 if fam == "Pfd" else 0
            nabla = dg.SetPartition.universal(n)
            bottom = frozenset(
                x
                for x in range(s.size)
                if par[x].rank == low and par[x].ker == nabla
            )
            ok = ok and zeros == bottom and minimal_ideal(s) == bottom
            out.append(
                CheckResult(
                    f"{'full-domain' if fam == 'Pfd' else 'right-restriction'}"
                    f" monoid at degree {n}: regular, rank-chain classes, "
                    "group cells of size rank!, bottom right zeros",
                    ok,
                )
            )
    if _cap(4, nmax) >= 4:
        dot = dotout.emit_eggbox(zoo.build("RR4"), title="RR4")
        out.append(
            CheckResult(
                "degree-4 right-restriction egg-box has 5 chained clusters",
                dot.count("subgraph") == 5,
            )
        )
    return out


def _size_check(fam, degrees, name=None):
    """The built sizes of a family against ``expected_size``."""
    sizes = [(n, zoo.build(f"{fam}{n}").size) for n in degrees]
    return CheckResult(
        name or f"{fam} family sizes match the counting formula",
        all(got == expected_size(fam, n) for n, got in sizes),
        " ".join(f"{fam}_{n}={got}" for n, got in sizes),
    )


def check_partition_sizes(nmax=None):
    out = [_size_check(fam, range(_cap(4, nmax) + 1)) for fam in "PIJ"]
    # derived consistency: the right-restriction monoid splits by rank
    ok = True
    for n in range(1, _cap(4, nmax) + 1):
        rr = len(zoo.build(f"RR{n}").elements)
        pfd = len(zoo.build(f"Pfd{n}").elements)
        d0 = len(zoo.build(f"D0{n}").elements)
        ok = ok and rr == pfd + d0 and d0 == expected_size("D0", n)
    out.append(
        CheckResult(
            "right-restriction monoid splits as full-domain part plus the "
            "rank-0 floor",
            ok,
        )
    )
    return out


# -- section 3: binary relations ----------------------------------------------


def check_relation_suite(nmax=None):
    out = []
    for n in range(1, _cap(3, nmax) + 1):
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
        out.append(
            CheckResult(
                f"all binary relations on {n} points: Ehresmann for partial "
                "identities, classes given by domain and codomain",
                ok,
            )
        )
        rest_l, rest_r, rest = eh.rest_subsemigroups(s, e)
        pt_set = frozenset(zoo.build(f"PT{n}").elements)
        i_set = frozenset(a for a in s.elements if is_partial_bijection(a))
        got_l = frozenset(s.decode(x) for x in rest_l)
        got_two = frozenset(s.decode(x) for x in rest)
        reg = frozenset(s.decode(x) for x in eh.reg_e(s, e))
        out.append(
            CheckResult(
                f"degree-{n} relations: largest left-restriction part is the "
                "partial functions, two-sided and regular parts are the "
                "partial bijections",
                got_l == pt_set and got_two == i_set and reg == i_set,
            )
        )
        pt = zoo.build(f"PT{n}")
        ept = zoo.semilattice_for("E", f"PT{n}")
        cat = algebra.build_category(pt, ept)
        flag, _ = algebra.is_ei(cat)
        out.append(
            CheckResult(
                f"endomorphisms in the partial-function category at degree "
                f"{n} are all invertible",
                flag,
            )
        )
    return out


def check_relation_sizes(nmax=None):
    return [
        _size_check(fam, range(1, _cap(cap, nmax) + 1))
        for fam, cap in (("T", 4), ("PT", 4), ("BX", 3))
    ]


# -- section 2: transform and radical ------------------------------------------


def check_transform_isomorphism(nmax=None):
    out = []
    cases = [
        ("PT2", "E", "left", 2),
        ("PT3", "E", "left", 3),
        ("Pfd2", "F", "right", 2),
        ("Pfd3", "F", "right", 3),
        ("I2", "E", "left", 2),
        ("I2", "E", "right", 2),
    ]
    for name, kind, side, n in cases:
        if n > _cap(4, nmax):
            continue
        s = zoo.build(name)
        e = zoo.semilattice_for(kind, name)
        label = (
            f"{name}, {side} order: basis transform is multiplicative, "
            "unitriangular, inverted by its order's Mobius matrix"
        )
        try:  # StateError unless Z is unitriangular and Z * M = identity
            ok = algebra.verify_stein(s, e, side)
            m = algebra.mobius_inverse(algebra.natural_order(s, e, side))
        except StateError as exc:
            out.append(CheckResult(label, False, str(exc)))
            continue
        out.append(CheckResult(label, ok and len(m) == s.size))
    if not out:
        out.append(CheckResult("transform checks (skipped)", True))
    return out


def check_semisimple_dimensions(nmax=None):
    out = []
    cases = [("PT2", "E", 2), ("PT3", "E", 3), ("Pfd2", "F", 2)]
    for name, kind, n in cases:
        if n > _cap(4, nmax):
            continue
        s = zoo.build(name)
        e = zoo.semilattice_for(kind, name)
        reg = eh.reg_e(s, e)
        label = (
            f"{name}: semigroup algebra modulo its radical has dimension "
            f"{len(reg)}, and the regular part's algebra is semisimple"
        )
        try:  # StateError unless every endomorphism is invertible
            ok = algebra.check_semisimple_quotient(s, e)
        except StateError as exc:
            out.append(CheckResult(label, False, str(exc)))
            continue
        reg_rad = algebra.radical_dim(
            algebra.RationalAlgebra.of_monoid(s.submonoid(reg))
        )
        out.append(
            CheckResult(
                label, ok and reg_rad == 0,
                f"dim={s.size} radical={s.size - len(reg)}",
            )
        )
    if not out:
        out.append(CheckResult("dimension checks (skipped)", True))
    return out


# -- section 5: Brauer and rook monoids ----------------------------------------


def check_brauer_failure(nmax=None):
    if _cap(2, nmax) < 2:
        return [CheckResult("partial-Brauer congruence failure (skipped)", True)]
    s = zoo.build("PB2")
    rep = eh.check_axioms(s, zoo.semilattice_for("E", "PB2"))
    w = zoo.witness_sets()["not_e"]
    ok = (
        not rep.axioms["L2"]
        and all(x in s.index for x in w.values())
    )
    return [
        CheckResult(
            "partial Brauer monoid at degree 2 fails the left-congruence "
            "axiom, with the same degree-2 witnesses inside it",
            ok,
        )
    ]


def check_brauer_regular_part(nmax=None):
    out = []
    for n in range(1, _cap(3, nmax) + 1):
        s = zoo.build(f"PB{n}")
        e = zoo.semilattice_for("E", f"PB{n}")
        reg = frozenset(s.decode(x) for x in eh.reg_e(s, e))
        i_set = frozenset(zoo.build(f"I{n}").elements)
        ok = reg == i_set
        # the class of each partial identity has double-factorial size
        for k in range(n + 1):
            for c in combinations(range(1, n + 1), k):
                idx = s.index[dg.id_subset(dg.Subset.of(n, c))]
                members, _, _ = eh.tilde_h_class(idx, s, e)
                if len(members) != double_factorial_odd(k):
                    ok = False
        out.append(
            CheckResult(
                f"partial Brauer monoid at degree {n}: regular part is the "
                "partial bijections, identity classes have double-factorial "
                "sizes",
                ok,
            )
        )
    return out


def check_rook_suite(nmax=None):
    out = []
    for n in range(1, _cap(3, nmax) + 1):
        first, second = zoo.tower_maps(n)
        pn = zoo.build(f"P{n}")
        rp = zoo.build(f"RP{n}")
        pn1 = zoo.build(f"P{n + 1}")
        out.append(
            CheckResult(
                f"tower embeddings at degree {n} are injective homomorphisms",
                check_embedding(first, pn, rp)
                and check_embedding(second, rp, pn1),
            )
        )
    for n in range(1, _cap(2, nmax) + 1):
        rp = zoo.build(f"RP{n}")
        g = zoo.semilattice_for("G", f"RP{n}")
        rep = eh.check_axioms(rp, g)
        out.append(
            CheckResult(
                f"rook monoid at degree {n} is Ehresmann for the enlarged "
                "block identities",
                rep.is_ehresmann(),
            )
        )
    for n in range(1, _cap(3, nmax) + 1):
        rp = zoo.build(f"RP{n}")
        g = zoo.semilattice_for("G", f"RP{n}")
        reg = frozenset(rp.decode(x) for x in eh.reg_e(rp, g))
        rj = frozenset(zoo.build(f"RJ{n}").elements)
        out.append(
            CheckResult(
                f"regular part of the rook monoid at degree {n} is its "
                "full-domain full-codomain submonoid",
                reg == rj,
            )
        )
    if _cap(2, nmax) >= 2:
        rp = zoo.build("RP2")
        f = zoo.semilattice_for("F", "RP2")
        w = zoo.witness_sets()["rook"]
        a = rp.index[w["alpha"]]
        b = rp.index[w["beta"]]
        t = rp.index[w["theta"]]
        e_l = eh.identity_sets(rp, f, "left")
        ok = e_l[a] == e_l[b] and e_l[rp.mul(t, a)] != e_l[rp.mul(t, b)]
        out.append(
            CheckResult(
                "lifted block identities fail left-congruence in the "
                "degree-2 rook monoid (fixed witness triple)",
                ok,
            )
        )
    return out


def check_brauer_sizes(nmax=None):
    return [
        _size_check(
            "B", range(1, _cap(4, nmax) + 1),
            "Brauer family sizes match the double factorials",
        )
    ]


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
        sections = SECTIONS
    elif section in SUITES:
        sections = (section,)
    else:
        raise ValidationError(f"unknown suite {section!r}")
    if nmax is not None and nmax < 0:
        raise ValidationError(f"degree cap must be non-negative, got {nmax}")
    checks = [check for sec in sections for check in SUITES[sec]]
    return [r for check in checks for r in _run(check, nmax)]


def _run(check, nmax):
    """A check's results, or one failed result naming the check and the
    message when a hypothesis it relies on breaks (a ``StateError``)."""
    try:
        return check(nmax)
    except StateError as exc:
        return [CheckResult(check.__name__, False, str(exc))]
