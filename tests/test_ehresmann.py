"""Axiom checks, tilde classes, orders and substructures."""

import random
from array import array

import pytest

from diagmon import algebra
from diagmon import diagrams as dg
from diagmon import ehresmann as eh
from diagmon import monoid as mon
from diagmon import relations as rel
from diagmon import zoo
from diagmon.errors import StateError, ValidationError
from diagmon.monoid import green, same_classes

from oracles import (
    axioms_pairwise,
    cayley_table,
    e_left,
    e_right,
    escape_pairwise,
    involute,
    is_partial_order,
    natural_order_pairwise,
    rest_sets_pairwise,
    top_degree,
)


def test_semilattice_validation():
    p2 = zoo.build("P2")
    swap = p2.index[dg.from_blocks([[1, -2], [2, -1]], 2)]
    with pytest.raises(ValidationError):
        eh.Semilattice.create(p2, [swap])  # not idempotent
    zeta = p2.index[dg.zeta(2)]
    e1 = p2.index[dg.id_subset(2, [1])]
    with pytest.raises(ValidationError):
        eh.Semilattice.create(p2, [zeta, e1])  # the two do not commute


def test_semilattice_refusals_name_the_element_or_pair():
    # each refusal with its message; a pair is named in row order over the
    # sorted members, so the first failing pair (e, f) has e < f
    p2 = zoo.build("P2")
    index = lambda blocks: p2.index[dg.from_blocks(blocks, 2)]
    swap = index([[1, -2], [2, -1]])
    with pytest.raises(ValidationError) as err:
        eh.Semilattice.create(p2, [p2.identity, swap])
    assert str(err.value) == f"element {swap} is not idempotent"
    one, split = index([[1, 2, -1, -2]]), index([[1, 2], [-1, -2]])
    corner = index([[1, -1, -2], [2]])
    assert one < split < corner
    assert p2.mul(one, split) == p2.mul(split, one)
    assert p2.mul(split, corner) != p2.mul(corner, split)
    assert p2.mul(one, corner) != p2.mul(corner, one)
    with pytest.raises(ValidationError) as err:
        eh.Semilattice.create(p2, [corner, p2.identity, split, one])
    assert str(err.value) == f"elements {one},{corner} do not commute"
    # two partial identities commute, and their product, the empty one,
    # is outside the set
    e, f = sorted(p2.index[dg.id_subset(2, [i])] for i in (1, 2))
    assert p2.mul(e, f) == p2.mul(f, e) not in (e, f)
    assert escape_pairwise(p2, [f, e]) == (f, e)
    with pytest.raises(ValidationError) as err:
        eh.Semilattice.create(p2, [f, e])
    assert str(err.value) == "not closed: a product escapes the set"


@pytest.mark.parametrize("monoid, semilattice", [("P2", "P3"), ("P3", "P2")])
def test_semilattice_of_another_monoid_is_rejected(monoid, semilattice):
    # before the check, the first pair indexed past P2's rows and the second
    # reported every axiom false
    s = zoo.build(monoid)
    e = zoo.semilattice_for("E", semilattice)
    calls = (
        lambda: eh.check_axioms(s, e),
        lambda: eh.identity_sets(s, e, "left"),
        lambda: eh.tilde_classes(s, e, "right"),
        lambda: eh.natural_order(s, e, "right"),
        lambda: eh.rest_subsemigroups(s, e),
        lambda: eh.reg_e(s, e),
        lambda: eh.tilde_h_class(e.members[0], s, e),
    )
    for call in calls:
        with pytest.raises(ValidationError, match="another monoid"):
            call()
    assert eh.check_axioms(e.parent, e).axioms["L1"]


def count_fills(monkeypatch):
    """Record each fill of a semilattice's ('products', side) memo, as the
    side it fills, and each ``row`` or ``column`` read, as (name, index)."""
    fills, reads = [], []

    def typed_rows(m, xs, column=False, original=mon.FiniteMonoid._typed_rows):
        fills.append((eh.SIDES[column], list(xs)))
        return original(m, xs, column)
    monkeypatch.setattr(mon.FiniteMonoid, "_typed_rows", typed_rows)
    for name in ("row", "column"):
        def counted(m, a, original=getattr(mon.FiniteMonoid, name),
                    name=name):
            reads.append((name, a))
            return original(m, a)
        monkeypatch.setattr(mon.FiniteMonoid, name, counted)
    return fills, reads


def test_second_calls_on_one_semilattice_read_no_rows(monkeypatch):
    s = zoo.build("P3")
    e = zoo.semilattice_for("F", "P3")
    report = eh.check_axioms(s, e)
    orders = {side: eh.natural_order(s, e, side) for side in ("left", "right")}
    fills, reads = count_fills(monkeypatch)
    assert eh.check_axioms(s, e) is report
    for side, below in orders.items():
        assert eh.natural_order(s, e, side) == below
    assert fills == [] and reads == []
    # the memo is no part of the value: an equal semilattice starts empty
    fresh = eh.Semilattice(s, e.members)
    same = lambda: (fresh, hash(fresh), repr(fresh)) == (e, hash(e), repr(e))
    assert fresh._memo == {} and same()
    assert eh.check_axioms(s, fresh).axioms == report.axioms
    assert fills == [(side, list(e.members)) for side in eh.SIDES]
    assert fresh._memo and same()


@pytest.mark.parametrize("kind, name", [("F", "P2"), ("E", "P3")])
def test_copies_of_a_semilattice_make_their_own_memo(kind, name):
    # _replace and _make build through tuple.__new__, not the constructor
    s = zoo.build(name)
    e = zoo.semilattice_for(kind, name)
    report = eh.check_axioms(s, e)
    for copy in (e._replace(members=e.members),
                 eh.Semilattice._make((s, e.members))):
        assert (copy, hash(copy)) == (e, hash(e))
        assert eh.check_axioms(s, copy) == report


@pytest.mark.parametrize("name", ["P3", "RR3", "RR4"])
def test_generator_sweep_settles_l2_and_r2_without_theta_rows(
    monkeypatch, name
):
    # L2 and R2 hold, so the sweep over the generators settles them on a
    # monoid under the cap: the only rows and columns composed are E's
    # member rows, one fill a side, and no theta's row or column is read
    s = zoo.build(name)
    e = zoo.semilattice_for("F", name)
    fills, reads = count_fills(monkeypatch)
    report = eh.check_axioms(s, e)
    assert report.theta_sweep == "full"
    assert report.axioms["L2"] and report.axioms["R2"]
    assert fills == [(side, list(e.members)) for side in eh.SIDES]
    assert reads == []


@pytest.mark.parametrize(
    "name, kind", [("RR4", "F"), ("LL4", "F"), ("I4", "E"), ("PT4", "E")]
)
def test_generator_sweep_matches_the_full_sweep_at_degree_4(name, kind):
    # the degree-4 pairs, under the cap, that the CLI and the exact-algebra
    # calls use
    s = zoo.build(name)
    report = eh.check_axioms(s, zoo.semilattice_for(kind, name))
    assert report.theta_sweep == "full"
    for axiom, classes, line in (
        ("L2", report.r_tilde, s.row), ("R2", report.l_tilde, s.column)
    ):
        ok, witness = eh._congruence_check(classes, range(s.size), line)
        assert report.axioms[axiom] == ok
        assert report.witnesses.get(axiom) == witness


def test_block_identities_give_ehresmann_structure():
    s = zoo.build("P2")
    f = zoo.semilattice_for("F", "P2")
    rep = eh.check_axioms(s, f)
    assert rep.is_ehresmann()
    assert rep.axioms == {
        "L1": True, "L2": True, "R1": True, "R2": True,
        "L3": False, "R3": False,
    }
    plus, star = rep.plus, rep.star
    for x in range(s.size):
        assert plus[x] in f.members and star[x] in f.members
        assert s.mul(plus[x], x) == x
        assert s.mul(x, star[x]) == x
        # x+ is the block identity of the kernel
        assert s.decode(plus[x]) == dg.id_equiv(dg.params(s.decode(x)).ker)


def test_partial_identities_fail_congruence_with_reverifiable_witness():
    s = zoo.build("P2")
    e = zoo.semilattice_for("E", "P2")
    rep = eh.check_axioms(s, e)
    assert not rep.axioms["L2"] and not rep.axioms["R2"]
    th, x, y = rep.witnesses["L2"]
    assert e_left(x, e) == e_left(y, e)
    assert e_left(s.mul(th, x), e) != e_left(s.mul(th, y), e)
    # L1 and R1 still hold here, so the representative maps exist
    plus, star = rep.plus, rep.star
    for z in range(s.size):
        assert s.mul(plus[z], z) == z and s.mul(z, star[z]) == z


def test_green_relations_refine_tilde_relations():
    s = zoo.build("P3")
    f = zoo.semilattice_for("F", "P3")
    rep = eh.check_axioms(s, f)
    gs = green(s)
    for x in range(s.size):
        for y in range(x + 1, s.size):
            if gs.r_class[x] == gs.r_class[y]:
                assert rep.r_tilde[x] == rep.r_tilde[y]
            if gs.l_class[x] == gs.l_class[y]:
                assert rep.l_tilde[x] == rep.l_tilde[y]


def test_generator_sweep_agrees_with_full_sweep(monkeypatch):
    # with the cap below its size a monoid sweeps its generators only
    for name in ("P2", "P3"):
        s = zoo.build(name)
        for kind in ("E", "F"):
            e = zoo.semilattice_for(kind, name)
            full = eh.check_axioms(s, e)
            with monkeypatch.context() as patch:
                patch.setattr(eh, "TABLE_CAP", 0)
                swept = eh.check_axioms(s, eh.Semilattice(s, e.members))
            assert (full.theta_sweep, swept.theta_sweep) == ("full", "generators")
            for key in ("axioms", "r_tilde", "l_tilde", "plus", "star"):
                assert getattr(swept, key) == getattr(full, key), (name, kind, key)


def test_large_monoid_sweeps_its_own_generators():
    s = zoo.build("P4")
    f = zoo.semilattice_for("F", "P4")
    assert s.size > mon.TABLE_CAP
    assert eh.check_axioms(s, f).theta_sweep == "generators"


@pytest.mark.parametrize(
    "name, star, kinds",
    [("P3", involute, ("E", "F")), ("BX3", rel.converse, ("E",))],
    ids=["P3", "BX3"],
)
def test_involution_swaps_the_sides(name, star, kinds):
    # x R y iff x* L y*, and f x = x iff x* f = x* for projections f = f*
    s = zoo.build(name)
    inv = [s.index[star(x)] for x in s.elements]
    gs = green(s)
    starred_l = [gs.l_class[inv[x]] for x in range(s.size)]
    assert same_classes(gs.r_class, starred_l)
    for kind in kinds:
        e = zoo.semilattice_for(kind, name)
        e_l, e_r = eh.identity_sets(s, e, "left"), eh.identity_sets(s, e, "right")
        assert e_l == [e_r[inv[x]] for x in range(s.size)]


def test_rest_subsemigroups_of_relations_are_partial_maps():
    s = zoo.build("BX2")
    e = zoo.semilattice_for("E", "BX2")
    rest_l, rest_r, rest = eh.rest_subsemigroups(s, e)
    assert frozenset(s.decode(x) for x in rest_l) == frozenset(
        zoo.build("PT2").elements
    )
    assert len(rest) == 7  # the partial bijections
    # each one-sided set passes its own containment axiom
    sub = s.submonoid(rest_l)
    e_sub = eh.Semilattice.create(
        sub, [sub.index[s.decode(i)] for i in e.members]
    )
    rep = eh.check_axioms(sub, e_sub)
    assert rep.axioms["L3"] and rep.is_ehresmann()


def test_reg_e_of_partition_monoid():
    s = zoo.build("P2")
    f = zoo.semilattice_for("F", "P2")
    e = zoo.semilattice_for("E", "P2")
    assert frozenset(s.decode(x) for x in eh.reg_e(s, f)) == frozenset(
        zoo.build("J2").elements
    )
    assert frozenset(s.decode(x) for x in eh.reg_e(s, e)) == frozenset(
        zoo.build("I2").elements
    )


def test_tilde_h_class_closure_flag():
    s = zoo.build("P3")
    f = zoo.semilattice_for("F", "P3")
    e = zoo.semilattice_for("E", "P3")
    ident = s.identity
    members, closed = eh.tilde_h_class(ident, s, f)
    assert closed and escape_pairwise(s, members) is None
    assert len(members) == 34  # partial bijections on three points
    members_e, closed_e = eh.tilde_h_class(ident, s, e)
    assert not closed_e
    x, y = escape_pairwise(s, members_e)
    assert s.mul(x, y) not in set(members_e)
    swap = s.index[dg.from_blocks([[1, -2], [2, -1], [3, -3]], 3)]
    with pytest.raises(ValidationError):
        eh.tilde_h_class(swap, s, f)


@pytest.mark.parametrize("idem", [True, 1.0, -1])
def test_tilde_h_class_refuses_an_index_that_is_not_an_element(idem):
    # True and 1.0 equal the member 1 of E, so only the index check
    # refuses them
    s = zoo.build("I2")
    e = zoo.semilattice_for("E", "I2")
    assert 1 in e.members
    with pytest.raises(ValidationError):
        eh.tilde_h_class(idem, s, e)


@pytest.mark.parametrize(
    "call",
    [
        lambda s, e, side: eh.identity_sets(s, e, side),
        lambda s, e, side: eh.tilde_classes(s, e, side),
        lambda s, e, side: eh.natural_order(s, e, side),
        lambda s, e, side: algebra.verify_stein(s, e, side),
        lambda s, e, side: zoo.block_identity_below(dg.identity(2), side),
    ],
    ids=[
        "identity_sets", "tilde_classes", "natural_order", "verify_stein",
        "block_identity_below",
    ],
)
def test_every_side_argument_is_left_or_right(call):
    # I2 with E satisfies L3 and R3, so both transforms exist
    s = zoo.build("I2")
    e = zoo.semilattice_for("E", "I2")
    for side in ("r", "l", "sideways", None):
        with pytest.raises(
            ValidationError, match="^side must be 'left' or 'right', got "
        ):
            call(s, e, side)
    for side in eh.SIDES:
        call(s, e, side)


def test_below_sets_are_partial_orders():
    s = zoo.build("P2")
    f = zoo.semilattice_for("F", "P2")
    e = zoo.semilattice_for("E", "P2")
    for sl in (f, e):
        for side in ("left", "right"):
            assert is_partial_order(eh.natural_order(s, sl, side))
    # a non-order: x below y and y below x for distinct x, y
    assert not is_partial_order([frozenset({0, 1}), frozenset({0, 1})])


@pytest.mark.parametrize(
    "name, kind", [("P3", "E"), ("P3", "F"), ("PB3", "E"), ("RP3", "G")]
)
def test_escape_matches_pairwise_on_tilde_h_classes(name, kind):
    s = zoo.build(name)
    e = zoo.semilattice_for(kind, name)
    tilde = eh.tilde_classes(s, e, "left"), eh.tilde_classes(s, e, "right")
    classes = {}
    for x in range(s.size):
        classes.setdefault((tilde[0][x], tilde[1][x]), []).append(x)
    for cls in classes.values():
        assert s.closed(cls) == (escape_pairwise(s, cls) is None)
    for idem in e.members:
        members, closed = eh.tilde_h_class(idem, s, e)
        assert closed == (escape_pairwise(s, members) is None)
    if (name, kind) == ("P3", "E"):  # the identity's class is not closed
        assert not eh.tilde_h_class(s.identity, s, e)[1]


@pytest.mark.parametrize("name, kind", [("P3", "F"), ("BX3", "E")])
def test_escape_matches_pairwise_on_restriction_sets(name, kind):
    s = zoo.build(name)
    for sub in eh.rest_subsemigroups(s, zoo.semilattice_for(kind, name)):
        assert s.closed(sub)
        assert escape_pairwise(s, sub) is None


def _matches_the_pairwise_oracles(s, e):
    """Identity sets, tilde classes, the six axioms with their witnesses,
    both natural orders and the restriction sets, against the definitions
    evaluated one product at a time."""
    rng = range(s.size)
    assert eh.identity_sets(s, e, "left") == [e_left(x, e) for x in rng]
    assert eh.identity_sets(s, e, "right") == [e_right(x, e) for x in rng]
    checks, r_tilde, l_tilde = axioms_pairwise(s, e)
    assert [eh.tilde_classes(s, e, side) for side in eh.SIDES] == [
        r_tilde, l_tilde
    ]
    report = eh.check_axioms(s, e)
    assert (report.r_tilde, report.l_tilde) == (r_tilde, l_tilde)
    assert report.axioms == {a: ok for a, (ok, _) in checks.items()}
    assert report.witnesses == {a: w for a, (_, w) in checks.items() if w}
    for side in ("left", "right"):
        assert eh.natural_order(s, e, side) == natural_order_pairwise(s, e, side)
    want = rest_sets_pairwise(s, e)
    try:
        got = eh.rest_subsemigroups(s, e)
    except StateError:
        assert any(
            not set(e.members) <= set(t) or escape_pairwise(s, t) is not None
            for t in want
        )
    else:
        assert got == want


def _names(max_degree):
    return [
        f"{fam}{n}"
        for fam in zoo.FAMILIES
        for n in range(min(top_degree(fam), max_degree) + 1)
    ]


@pytest.mark.parametrize("name", _names(3))
def test_rows_match_the_pairwise_oracles(name):
    # every semilattice the family has (T3, say, has none); G differs from
    # F in rook monoids only
    spec = zoo.FamilySpec.parse(name)
    rook = zoo.FAMILIES[spec.family].universe == "rook"
    s = zoo.build(name)
    for kind in "EFG" if rook else "EF":
        try:
            e = zoo.semilattice_for(kind, name)
        except ValidationError:
            continue
        _matches_the_pairwise_oracles(s, e)


@pytest.mark.parametrize("name", _names(3) + ["P4"])
def test_member_rows_and_identity_sets_match_the_table(name):
    # each side's member rows, composed over the prefix tree of E's words,
    # against the rows and columns composed one word at a time and against
    # the whole table; the identity sets, kept as bitmasks, against their
    # definition read off the table
    s = zoo.build(name)
    table = cayley_table(s)
    rng = range(s.size)
    for kind in zoo.SEMILATTICE_KINDS:
        try:
            e = zoo.semilattice_for(kind, name)
        except ValidationError:
            continue
        rows, cols = (eh._products(s, e, side) for side in eh.SIDES)
        assert len(rows) == len(cols) == len(e.members)
        for f, row, col in zip(e.members, rows, cols):
            assert type(row) is type(col) is array
            assert row.itemsize == col.itemsize == 2
            assert list(row) == s.row(f) == list(table[f])
            assert list(col) == s.column(f) == [table[y][f] for y in rng]
        assert eh.identity_sets(s, e, "left") == [
            frozenset(f for f in e.members if table[f][x] == x) for x in rng
        ]
        assert eh.identity_sets(s, e, "right") == [
            frozenset(f for f in e.members if table[x][f] == x) for x in rng
        ]


@pytest.mark.parametrize("name", _names(3))
def test_kept_tilde_labellings_match_fresh_ones(name):
    # the labellings are kept on E by the first call; the report, later
    # calls and tilde_h_class read them, and an equal semilattice with an
    # empty memo computes equal ones
    s = zoo.build(name)
    for kind in zoo.SEMILATTICE_KINDS:
        try:
            e = zoo.semilattice_for(kind, name)
        except ValidationError:
            continue
        kept = {side: eh.tilde_classes(s, e, side) for side in eh.SIDES}
        report = eh.check_axioms(s, e)
        assert [report.r_tilde, report.l_tilde] == list(kept.values())
        fresh = eh.Semilattice(s, e.members)
        for side in eh.SIDES:
            assert eh.tilde_classes(s, e, side) is kept[side]
            assert eh.tilde_classes(s, fresh, side) == kept[side]
        for idem in e.members:
            assert eh.tilde_h_class(idem, s, e) == eh.tilde_h_class(
                idem, s, eh.Semilattice(s, e.members)
            )


@pytest.mark.parametrize("kind", ["E", "F"])
def test_untabled_p4_matches_the_pairwise_oracles(kind):
    s = zoo.build("P4")
    assert s.size > mon.TABLE_CAP
    _matches_the_pairwise_oracles(s, zoo.semilattice_for(kind, "P4"))


@pytest.mark.parametrize("name", ["P4", "RR4", "D03"])
def test_rows_and_columns_match_mul(name):
    # generator actions composed along words, on a monoid above the cap,
    # one under it and the semigroup D03
    s = zoo.build(name)
    picks = set(random.Random(3).sample(range(s.size), min(s.size, 40)))
    picks.update(s.generators)
    rng = range(s.size)
    for a in sorted(picks):
        assert s.row(a) == [s.mul(a, y) for y in rng]
        assert s.column(a) == [s.mul(y, a) for y in rng]
