"""Generic monoid engine: enumeration, tables, Green's relations, egg-boxes."""

import functools
import html
import random
import re
import sys
import tracemalloc
from array import array

import pytest

from diagmon import diagrams as dg
from diagmon import dotout
from diagmon import ehresmann as eh
from diagmon import monoid as mon
from diagmon import relations as rel
from diagmon import zoo
from diagmon.errors import ValidationError

from oracles import (
    bell_numbers,
    cayley_graph_by_products,
    cayley_table,
    closure,
    column,
    embedding_pairwise,
    escape_pairwise,
    generates,
    graph_rows,
    green_class_count,
    green_principal_ideals,
    inverse_pairwise,
    joins_upper_blocks,
    monoid_associative,
    monoid_by_products,
    op_table,
    partition_actions,
    partition_generators,
    regular_pairwise,
    restricted_submonoid,
    right_actions,
    right_zeros_pairwise,
    row,
    submonoid_by_products,
    top_degree,
    word,
)


def as_lists(rows):
    """Typed rows, or tuples, as lists, so that ``==`` with a list of lists
    compares every entry: ``array('H', [0]) == [0]`` is False."""
    return list(map(list, rows))


def per_element(m, actions):
    """A generator graph, kept as one action per generator, read back in
    the oracles' per-element form: the images of x under every action, for
    each element x.  Indexes every action at every x, so a short action
    raises rather than being cut."""
    return [[a[x] for a in actions] for x in range(m.size)]


def test_from_elements_builds_identity_and_table():
    m = zoo.build("P2")
    assert m.size == 15
    assert m.identity is not None
    assert m.decode(m.identity) == dg.identity(2)
    assert as_lists(m._build_table()) == definitional_table("P2")
    assert monoid_associative(m)


def test_closure_from_generators_recovers_partition_monoids():
    for n, size in ((2, 15), (3, 203)):
        gens = partition_generators(n)
        universe = closure(gens, dg.multiply, dg.identity(n))
        assert set(universe) == set(zoo.partition_universe(n))
        m = monoid_by_products(gens, dg.multiply, dg.identity(n), universe)
        assert m.size == size
        assert m.elements == universe  # breadth first, in discovery order


def test_closure_stops_at_the_first_product_outside_the_universe():
    # the universe holds the identity but misses g*h for two generators
    gens = partition_generators(3)
    missing = dg.multiply(gens[-2], gens[-1])
    universe = [x for x in zoo.partition_universe(3) if x != missing]
    assert dg.identity(3) in universe and len(universe) == 202
    products = []

    def op(x, g):
        products.append(dg.multiply(x, g))
        return products[-1]

    with pytest.raises(ValidationError):
        monoid_by_products(gens, op, dg.identity(3), universe)
    inside = set(universe)
    assert products[-1] == missing
    assert len(products) > len(gens)
    assert all(p in inside for p in products[:-1])


def test_duplicate_elements_rejected():
    e = dg.identity(2)
    with pytest.raises(ValidationError, match="duplicate"):
        mon.froidure_pin([], e, [e, e])


def brute_force_j_classes(m):
    """J-classes via full two-sided principal ideals, element by element."""
    rng = range(m.size)
    ideals = []
    for x in rng:
        ideal = {x}
        ideal |= {m.mul(x, j) for j in rng}
        ideal |= {m.mul(i, x) for i in rng}
        ideal |= {m.mul(m.mul(i, x), j) for i in rng for j in rng}
        ideals.append(frozenset(ideal))
    return mon._classes_by_key(ideals)


def same_partition(xs, ys):
    by_x, by_y = {}, {}
    for i, (x, y) in enumerate(zip(xs, ys)):
        by_x.setdefault(x, set()).add(i)
        by_y.setdefault(y, set()).add(i)
    return sorted(map(sorted, by_x.values())) == sorted(
        map(sorted, by_y.values())
    )


def test_same_classes_matches_pairwise_definition():
    rng = random.Random(5)
    for _ in range(2000):
        size = rng.randrange(9)
        xs = [rng.randrange(4) for _ in range(size)]
        # a relabelling of xs gives the same partition; a changed entry or
        # fresh random labels usually do not
        names = rng.sample(range(100), 4)
        ys = [names[x] for x in xs]
        if size and rng.random() < 0.5:
            ys[rng.randrange(size)] = names[rng.randrange(4)]
        if rng.random() < 0.2:
            ys = [rng.randrange(4) for _ in range(size)]
        assert mon.same_classes(xs, ys) == same_partition(xs, ys)


@pytest.mark.parametrize("name", ["P2", "B3", "PT2", "RR2"])
def test_green_j_matches_brute_force(name):
    m = zoo.build(name)
    gs = mon.green(m)
    assert same_partition(gs.d_class, brute_force_j_classes(m))
    assert gs.d_equals_j


def test_green_class_counts_partition_monoid_degree_3():
    m = zoo.build("P3")
    gs = mon.green(m)
    # R-classes are (dom, ker) pairs, L-classes (codom, coker) pairs,
    # D-classes the four ranks
    pars = [dg.params(a) for a in m.elements]
    assert green_class_count(gs, "r") == len({(p.dom, p.ker) for p in pars})
    assert green_class_count(gs, "l") == len({(p.codom, p.coker) for p in pars})
    assert green_class_count(gs, "d") == len({p.rank for p in pars}) == 4
    assert gs.d_equals_j


def eggbox_grids(dot):
    """The grids of an egg-box in DOT, one per cluster in order: each a
    list of rows, each row a list of (cell text, background) pairs, with
    the cell text split into the texts of its elements."""
    grids = []
    for table in re.findall(r"<TABLE[^>]*>(.*?)</TABLE>", dot):
        grids.append([
            [
                (html.unescape(body).split("<BR/>") if body else [], color)
                for color, body in re.findall(
                    r'<TD(?: BGCOLOR="([^"]*)")?>(.*?)</TD>', row
                )
            ]
            for row in re.findall(r"<TR>(.*?)</TR>", table)
        ])
    return grids


def test_eggbox_grids_cover_each_d_class():
    # each element in exactly one cell; a cluster's cells are one D-class,
    # its rows R-classes and its columns L-classes, each cell one H-class,
    # and a cell is grey exactly when it holds an idempotent
    for name in ("B3", "PT2", "RR3", "Pfk2"):
        m = zoo.build(name)
        gs = mon.green(m)
        of_text = {dotout.element_text(a): x for x, a in enumerate(m.elements)}
        seen = []
        for grid in eggbox_grids(dotout.emit_eggbox(m, title=name)):
            cells = [
                ([of_text[t] for t in texts], color)
                for row in grid for texts, color in row if texts
            ]
            members = [x for xs, _ in cells for x in xs]
            assert len({gs.d_class[x] for x in members}) == 1
            for xs, color in cells:
                assert len({gs.h_class[x] for x in xs}) == 1
                idempotent = any(m.mul(x, x) == x for x in xs)
                assert color == (dotout.GROUP_COLOR if idempotent else "")
            for classes, lines in (
                (gs.r_class, grid), (gs.l_class, list(zip(*grid)))
            ):
                ids = [
                    {classes[of_text[t]] for texts, _ in line for t in texts}
                    for line in lines
                ]
                assert all(len(c) == 1 for c in ids)
                assert len(set().union(*ids)) == len(lines)
            seen += members
        assert sorted(seen) == list(range(m.size)), name


def test_regular_and_inverse_classification():
    assert mon.is_inverse(zoo.build("I2"))
    assert mon.is_inverse(zoo.build("J3"))
    assert mon.is_regular(zoo.build("PT2"))
    assert not mon.is_inverse(zoo.build("PT2"))
    assert mon.is_regular(zoo.build("P2"))  # a = a a° a
    assert not mon.is_inverse(zoo.build("P2"))


def test_right_zeros_and_minimal_ideal():
    pfd = zoo.build("Pfd2")
    d1 = frozenset(
        i for i, a in enumerate(pfd.elements)
        if dg.params(a).rank == 1
        and dg.params(a).ker == (0, 0)
    )
    assert mon.right_zeros(pfd) == d1
    assert mon.minimal_ideal(pfd) == d1


def test_check_embedding_positive_and_negative():
    first, second = zoo.tower_maps(2)
    p2, rp2, p3 = zoo.build("P2"), zoo.build("RP2"), zoo.build("P3")
    assert mon.check_embedding(first, p2, rp2)
    assert mon.check_embedding(second, rp2, p3)
    broken = list(first)
    broken[0], broken[1] = broken[1], broken[0]
    assert not mon.check_embedding(broken, p2, rp2)


def test_check_embedding_matches_pairwise_oracle():
    rng = random.Random(3)
    for n in (1, 2):
        p, rp = zoo.build(f"P{n}"), zoo.build(f"RP{n}")
        up = zoo.build(f"P{n + 1}")
        for f, s, t in zip(zoo.tower_maps(n), (p, rp), (rp, up)):
            maps = [list(f)]
            for _ in range(20):
                swapped, moved = list(f), list(f)
                i, j = rng.sample(range(s.size), 2)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                moved[rng.randrange(s.size)] = rng.randrange(t.size)
                maps += [swapped, moved]
            for g in maps:
                want = embedding_pairwise(g, s, t)
                assert mon.check_embedding(g, s, t) == want


def test_submonoid_reindexes_closed_subsets():
    m = zoo.build("P2")
    idx = [i for i, a in enumerate(m.elements) if dg.params(a).rank == 2]
    sub = m.submonoid(idx)  # the symmetric group inside P_2
    assert sub.size == 2 and sub.identity is not None
    # a repeated index names the same element once
    assert m.submonoid(idx + idx[::-1]).right == sub.right


def identity_by_search(m, indices):
    """The local index of the first element of the sorted ``indices`` that
    is a two-sided identity on them, or None."""
    return next((
        k for k, e in enumerate(indices)
        if all(m.mul(e, x) == x == m.mul(x, e) for x in indices)
    ), None)


def counted_mul(monkeypatch, call, *args):
    """call(*args) and the number of ``FiniteMonoid.mul`` calls it made."""
    calls = []
    mul = mon.FiniteMonoid.mul
    monkeypatch.setattr(
        mon.FiniteMonoid, "mul", lambda s, i, j: calls.append(0) or mul(s, i, j)
    )
    result = call(*args)
    monkeypatch.undo()
    return result, len(calls)


@pytest.mark.parametrize("name", ["RR3", "I3", "Pfd3", "J3", "RP2", "P3"])
def test_submonoid_holding_the_identity_reads_it(monkeypatch, name):
    # the parent's identity is the submonoid's, so no candidate is tried,
    # and the closure walk reads the parent's right actions, not ``mul``
    spec = zoo.FamilySpec.parse(name)
    p = zoo.build(f"P{spec.n + (spec.family == 'RP')}")
    cut = sorted(zoo.family_cut(spec)) if spec.family != "P" else range(p.size)
    assert p.identity in cut
    sub, calls = counted_mul(monkeypatch, p.submonoid, cut)
    assert sub.identity == list(cut).index(p.identity)
    assert sub.identity == identity_by_search(p, list(cut))
    assert calls == 0


def test_local_monoid_finds_its_own_identity(monkeypatch):
    # e*S*e for an idempotent e other than 1 is a monoid with identity e,
    # which does not hold the parent's identity: its identity is searched
    p = zoo.build("P3")
    e = p.index[dg.id_subset(3, {1, 2})]
    assert p.mul(e, e) == e != p.identity
    local = sorted({p.mul(p.mul(e, x), e) for x in range(p.size)})
    assert p.identity not in local
    sub, calls = counted_mul(monkeypatch, p.submonoid, local)
    found, searched = counted_mul(monkeypatch, identity_by_search, p, local)
    assert sub.identity == local.index(e) == found
    # the identity search is the only caller of ``mul``
    assert calls == searched >= 1
    assert sub.size == zoo.build("P2").size


# -- the Froidure-Pin engine against the definitional code ----------------------

SMALL = [
    f"{f}{n}" for f in zoo.FAMILIES for n in range(min(top_degree(f), 3) + 1)
]


@pytest.mark.parametrize("n", range(5))
def test_enumeration_reaches_every_partition(n):
    g = zoo.build(f"P{n}")
    assert len(g.elements) == bell_numbers(2 * n + 1)[-1]
    assert tuple(g.elements) == zoo.partition_universe(n)
    gens = partition_generators(n)
    assert [g.elements[i] for i in g.generators] == gens
    if n == 4:
        return  # the word and edge checks below would cost 40k products
    for x in range(len(g.elements)):
        a = dg.identity(n)
        for k in word(g, x):
            a = dg.multiply(a, gens[k])
        assert a == g.elements[x]
        for k, gen in enumerate(gens):
            assert g.elements[g.right[k][x]] == dg.multiply(g.elements[x], gen)
            assert g.elements[g.left[k][x]] == dg.multiply(gen, g.elements[x])


@pytest.mark.parametrize("n", range(5))
def test_generator_actions_match_multiply(n):
    actions = partition_actions(n)
    gens = partition_generators(n)
    assert len(actions) == len(gens)
    for x in zoo.partition_universe(n):
        for act, g in zip(actions, gens):
            assert act(x) == dg.multiply(x, g)


@pytest.mark.parametrize("n", range(5))
def test_position_tables_match_the_relabelling_oracle(monkeypatch, n):
    # the oracle walks the per-diagram relabellings, one product at a time;
    # _partition_monoid is zoo.build's path, counted here without its cache
    universe = zoo.partition_universe(n)
    want = monoid_by_products(
        partition_actions(n), lambda x, act: act(x), dg.identity(n), universe
    )
    built = zoo.build(f"P{n}")
    joined = []
    position = zoo._position
    monkeypatch.setattr(
        zoo, "_position", lambda *a: joined.append(a[1]) or position(*a)
    )
    got = zoo._partition_monoid(n)
    assert got.elements == built.elements == want.elements == list(universe)
    for field in ("right", "left", "order", "parent", "letter", "generators"):
        assert getattr(got, field) == getattr(want, field), field
        assert getattr(built, field) == getattr(want, field), field
    # the merge's per-diagram branch: exactly the diagrams whose lower
    # points n-1 and n lie in two different blocks with upper points
    merged = partition_actions(n)[-1] if n >= 2 else None
    assert joined == [
        merged(a).code for a in universe if joins_upper_blocks(a)
    ]
    assert len(joined) == {0: 0, 1: 0, 2: 2, 3: 42, 4: 1064}[n]


@pytest.mark.parametrize("n", range(5))
def test_enumeration_matches_the_product_driven_oracle(n):
    g = zoo.build(f"P{n}")
    want = cayley_graph_by_products(
        partition_generators(n), dg.multiply, dg.identity(n),
        zoo.partition_universe(n),
    )
    got = {
        "right": per_element(g, g.right), "left": per_element(g, g.left),
        "words": [word(g, x) for x in range(g.size)],
        "prefix": [None if p < 0 else p for p in g.parent],
        "generators": g.generators,
    }
    for field, value in got.items():
        assert value == want[field], field


def test_enumeration_rejects_a_non_generating_set():
    with pytest.raises(ValidationError):
        monoid_by_products(
            partition_generators(3)[:-1], dg.multiply, dg.identity(3),
            zoo.partition_universe(3),
        )


@functools.lru_cache(maxsize=None)
def definitional_table(name):
    """The Cayley table of a zoo monoid, one ``dg.multiply`` or
    ``rel.compose`` call per product, made once for the tests here.

    RP3's 877**2 products are instead P4's products on RP3's cut, which
    skips 877**2 ``dg.multiply`` calls and is as exact: P4's right and
    left graphs are x*g and g*x by ``dg.multiply`` for every diagram x and
    generator g (test_generator_actions_match_multiply[4] and
    test_enumeration_matches_the_product_driven_oracle[4]), so by
    associativity ``P4.mul``, which carries y up the tree from x through
    the left graph, is the diagram product x*y on every pair."""
    if name == "RP3":
        p4, cut = zoo.build("P4"), zoo.family_cut(zoo.FamilySpec("RP", 3))
        local = {p: k for k, p in enumerate(cut)}
        return [[local[p4.mul(x, y)] for y in cut] for x in cut]
    elements = zoo.build(name).elements
    relations = isinstance(elements[0], rel.BinaryRelation)
    return op_table(elements, rel.compose if relations else dg.multiply)


@pytest.mark.parametrize(
    "family",
    [f for f in zoo.FAMILIES if zoo.home(f, 0)[0] == "P"],
)
def test_traced_tables_match_multiply(family):
    """Every product of each family's tables up to degree 3 against
    ``definitional_table``: ``dg.multiply`` on every pair, or for RP3
    P4's products on its cut, exact by the argument given there."""
    for n in range(min(top_degree(family), 3) + 1):
        name = f"{family}{n}"
        m = zoo.build(name)
        assert as_lists(m._build_table()) == definitional_table(name), name


def test_table_rows_are_two_byte_arrays():
    # every family at degree <= 3: one typed row per element, 2 bytes an
    # entry, equal to the definitional table entry by entry
    for name in SMALL:
        m = zoo.build(name)
        table = m._build_table()
        assert len(table) == m.size, name
        assert all(
            type(row) is array and row.itemsize == 2 for row in table
        ), name
        assert as_lists(table) == definitional_table(name), name


def test_rows_are_four_byte_arrays_above_65536_elements():
    # Z_65537 under addition: one element past what 2 bytes can index
    order = 65537
    m = monoid_by_products(
        [1, 256, 65536], lambda a, b: (a + b) % order, 0, range(order)
    )
    xs = [0, 1, 256, 65536, 257]
    for column in (False, True):
        for x, line in zip(xs, m._typed_rows(xs, column)):
            assert line.typecode == "I", (x, column)
            assert line == array("I", ((x + y) % order for y in range(order)))


def test_table_of_a_deep_tree_is_built_without_recursion():
    # the cyclic group of order 1500 from the generator 1: its tree is a
    # path of depth 1499, deeper than the default recursion limit
    order = 1500
    tracemalloc.start()
    try:
        m = monoid_by_products(
            [1], lambda a, b: (a + b) % order, 0, list(range(order))
        )
        last = order - 1
        assert m.mul(last, last) == order - 2
        assert row(m, last)[1] == column(m, last)[1] == 0
        # no per-element word is held: the words' slots alone would take
        # 8.6 MB, the sum of 1,124,250 word lengths
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1 << 20, held
    assert len(word(m, last)) == order - 1 > sys.getrecursionlimit()
    table = m._build_table()
    assert len(table) == order
    for i, line in enumerate(table):
        assert list(line) == [(i + j) % order for j in range(order)], i


@pytest.mark.parametrize(
    "name", [f"BX{n}" for n in range(4)] + [f"PT{n}" for n in range(5)]
)
def test_relation_tables_match_compose(name):
    m = zoo.build(name)
    spec = zoo.FamilySpec.parse(name)
    universe = zoo.relation_universe("BX", spec.n)
    test = rel.is_partial_function if spec.family == "PT" else lambda a: True
    assert m.elements == [a for a in universe if test(a)]  # universe order
    assert m.decode(m.identity) == rel.identity_rel(spec.n)
    gens = zoo.relation_generators(spec.family, spec.n)
    assert [m.elements[i] for i in m.generators] == gens
    assert m.right == right_actions(gens, rel.compose, m.elements)
    assert as_lists(m._build_table()) == definitional_table(name)


@pytest.mark.parametrize("name, calls", [("PT4", 25), ("BX3", 48)])
def test_relation_actions_compose_once_per_row_value(monkeypatch, name,
                                                     calls):
    # one product per generator and row value: 5 * 5 and 6 * 8
    seen = []

    def counted(a, b, original=rel.compose):
        seen.append((a, b))
        return original(a, b)

    monkeypatch.setattr(rel, "compose", counted)
    zoo.build.__wrapped__(name)
    assert len(seen) == calls


def test_relation_actions_stop_at_a_product_outside_the_set():
    # 1 ∪ {(1,2)} is no partial function: the walk stops at the identity
    g = zoo.relation_generators("BX", 3)[4]
    assert not rel.is_partial_function(g)
    actions = zoo._relation_actions([g], "PT", 3)
    with pytest.raises(ValidationError,
                       match="not closed: .* escapes the set"):
        mon.froidure_pin(actions, rel.identity_rel(3),
                         zoo.relation_universe("PT", 3))


@pytest.mark.parametrize(
    "name",
    "RR4 LL4 Pfd4 Pfcd4 J4 I4 T4 B4 D04 D14 Pfk4 RP3 RJ3 B0".split(),
)
def test_submonoid_matches_the_row_restriction_oracle(name):
    # RP3 and RJ3 live in P4 with an identity that is not P4's; D04, D14
    # and Pfk4 are semigroups; B0 has no generators
    spec = zoo.FamilySpec.parse(name)
    universe, degree = zoo.home(*spec)
    parent = zoo.build(f"{universe}{degree}")
    m = zoo.build(name)
    want = restricted_submonoid(parent, zoo.family_cut(spec), parent.order)
    for key, value in want.items():
        if key == "table":
            got = as_lists(m._build_table())
        elif key in ("right", "left"):
            got = per_element(m, getattr(m, key))
        else:
            got = getattr(m, key)
        assert got == value, key
    mon.green(m)


WALKED = "generators right left order parent letter identity elements".split()


def walked_or_error(call, *args):
    """The fields of the monoid call(*args) returns, or the text of the
    ValidationError it raises."""
    try:
        m = call(*args)
    except ValidationError as error:
        return str(error)
    return {key: getattr(m, key) for key in WALKED}


@pytest.mark.parametrize(
    "n, family",
    [(n, fam) for n in range(5)
     for fam, family in sorted(zoo.FAMILIES.items()) if family.member],
)
def test_submonoid_matches_the_product_driven_walk(n, family):
    # every family cut from P_n (a rook family's of degree n - 1): the
    # walk over the parent's right actions against one ``mul`` per product
    p, cut = zoo.build(f"P{n}"), zoo.family_cuts(n)[family]
    want = walked_or_error(submonoid_by_products, p, cut)
    assert type(want) is dict
    assert walked_or_error(p.submonoid, cut) == want


def test_submonoid_matches_the_product_driven_walk_off_the_identity():
    # e*P3*e holds its own identity e, not P3's; the minimal ideal of P3,
    # its Bell(3)**2 diagrams of rank 0, holds none
    p = zoo.build("P3")
    e = p.index[dg.id_subset(3, {1, 2})]
    local = {p.mul(p.mul(e, x), e) for x in range(p.size)}
    ideal = mon.minimal_ideal(p)
    for subset in (local, ideal):
        want = walked_or_error(submonoid_by_products, p, subset)
        assert type(want) is dict and want["identity"] != p.identity
        assert walked_or_error(p.submonoid, subset) == want
    assert want["identity"] is None and len(ideal) == 25


def test_submonoid_names_the_product_driven_walk_s_escape():
    # subsets that are not closed raise the same ValidationError text as
    # the walk that makes each product by ``mul``: the same element and
    # generator
    rng = random.Random(44)
    p3 = zoo.build("P3")
    subsets = [rng.sample(range(p3.size), rng.randint(2, 60))
               for _ in range(60)]
    for name in ("RR3", "J3", "Pfd3", "I3"):
        cut = zoo.family_cut(zoo.FamilySpec.parse(name))
        subsets += [cut[:-1], cut[1:], cut[: len(cut) // 2]]
    for subset in subsets:
        want = walked_or_error(submonoid_by_products, p3, subset)
        assert type(want) is str and want.startswith("not closed: the ")
        assert walked_or_error(p3.submonoid, subset) == want


@pytest.mark.parametrize("name", ["P3", "RR3", "B0"])
def test_mul_matches_the_table(name):
    # mul carries y up the tree from x, on every pair; B0 has one element
    # and no generators
    m = zoo.build(name)
    table = cayley_table(m)
    rng = range(m.size)
    assert [[m.mul(x, y) for y in rng] for x in rng] == as_lists(table)


def test_mul_in_a_semigroup_matches_the_parent_table():
    # the rank <= 1 ideal of P4 has no identity, so its generators are
    # roots of its tree: mul against P4's table on a seeded sample of rows
    # and on the generators' rows, every column each
    p4 = zoo.build("P4")
    ideal = [x for x in range(p4.size) if dg.params(p4.decode(x)).rank <= 1]
    m = p4.submonoid(ideal)
    assert m.identity is None and m.size == len(ideal)
    assert all(m.parent[g] == -1 for g in m.generators)
    table = cayley_table(p4)
    rows = set(random.Random(7).sample(range(m.size), 120))
    rows.update(m.generators)
    for x in sorted(rows):
        want = [table[ideal[x]][p] for p in ideal]
        assert [ideal[m.mul(x, y)] for y in range(m.size)] == want, x


@pytest.mark.parametrize("name", ["P3", "PT4", "BX3", "P0"])
def test_from_graph_table_matches_traced_rows(name):
    # the table made from the tree against products traced along words
    m = zoo.build(name)
    assert as_lists(m._build_table()) == graph_rows(m)
    mon.green(m)


@pytest.mark.parametrize("name", SMALL + ["RR4", "LL4", "Pfd4", "PT4"])
def test_rows_filled_on_demand_match_the_whole_table(name):
    # rows composed along words, read in a seeded random order with a
    # sample of traced products each, and the columns (every one at degree
    # <= 3, a seeded sample of 96 at degree 4, where reading all of them
    # costs 0.3-0.6 s a monoid), against the table made whole in tree order
    m = zoo.build(name)
    want = as_lists(m._build_table())
    small = zoo.FamilySpec.parse(name).n <= 3
    if small:
        assert want == definitional_table(name)
    rng = random.Random(f"rows {name}")
    order = list(range(m.size))
    rng.shuffle(order)
    for i in order:
        js = rng.sample(range(m.size), min(m.size, 12))
        assert row(m, i) == want[i], i
        assert [m.mul(i, j) for j in js] == [want[i][j] for j in js], i
    columns = range(m.size) if small else rng.sample(range(m.size), 96)
    for a in columns:
        assert column(m, a) == [line[a] for line in want], a


def test_structural_reads_fill_few_rows(monkeypatch):
    # the egg-box reads only the generator graphs; the Ehresmann report's
    # one row and one column per member of E are counted in test_ehresmann
    ll4 = zoo.build("LL4")
    calls = {"_lines": [], "_build_table": []}
    for method, seen in calls.items():
        def counted(m, *args, original=getattr(mon.FiniteMonoid, method),
                    seen=seen):
            seen.append(args)
            return original(m, *args)
        monkeypatch.setattr(mon.FiniteMonoid, method, counted)
    dotout.emit_eggbox(ll4)
    assert calls == {"_lines": [], "_build_table": []}


def test_bx3_needs_its_extra_generator():
    gens = zoo.relation_generators("BX", 3)[:-1]
    one = rel.identity_rel(3)
    assert len(closure(gens, rel.compose, one)) == 506
    with pytest.raises(ValidationError, match="506 of the 512"):
        monoid_by_products(gens, rel.compose, one,
                           zoo.relation_universe("BX", 3))


def test_submonoid_above_the_table_cap_is_untabled():
    # all of P4 as a submonoid of itself: greedy generators, both graphs
    # and the tree, with products traced along the tree's words
    p4 = zoo.build("P4")
    sub = p4.submonoid(range(p4.size))
    assert sub.size > mon.TABLE_CAP and sub.elements == p4.elements
    assert sub.identity == p4.identity
    rng = random.Random(23)
    for _ in range(2000):
        i, j = rng.randrange(p4.size), rng.randrange(p4.size)
        assert sub.mul(i, j) == p4.mul(i, j)
        assert sub.elements[sub.mul(i, j)] == dg.multiply(
            sub.elements[i], sub.elements[j]
        )
    for a in rng.sample(range(p4.size), 5) + sub.generators:
        assert row(sub, a) == row(p4, a)
        assert column(sub, a) == column(p4, a)
    got, want = mon.green(sub), mon.green(p4)
    for key in ("r_class", "l_class", "d_class"):
        assert mon.same_classes(getattr(got, key), getattr(want, key)), key


def test_untabled_semigroup_derives_its_left_graph_from_the_tree():
    # the rank <= 1 ideal of P4: no identity, so the tree's roots are the
    # greedy generators themselves, and g_j*g_k is read off the right graph
    p4 = zoo.build("P4")
    ideal = [i for i, a in enumerate(p4.elements) if dg.params(a).rank <= 1]
    s = p4.submonoid(ideal)
    assert (s.size, s.identity) == (1594, None)
    assert len(s.generators) == 67
    for x in range(s.size):
        assert [ideal[a[x]] for a in s.left] == [
            p4.mul(ideal[g], ideal[x]) for g in s.generators
        ], x


def test_traced_p4_products_match_multiply():
    m = zoo.build("P4")
    assert m.size > mon.TABLE_CAP
    rng = random.Random(5)
    for _ in range(5000):
        i, j = rng.randrange(m.size), rng.randrange(m.size)
        assert m.mul(i, j) == m.index[dg.multiply(m.elements[i], m.elements[j])]
    # each action against the diagram product by its generator
    for _ in range(500):
        x = rng.randrange(m.size)
        for right, left, g in zip(m.right, m.left, m.generators):
            a, b = m.elements[x], m.elements[g]
            assert right[x] == m.index[dg.multiply(a, b)]
            assert left[x] == m.index[dg.multiply(b, a)]


@pytest.mark.parametrize("name", SMALL + ["LL4", "RR4"])
def test_green_matches_principal_ideal_oracle(name):
    m = zoo.build(name)
    for k, g in enumerate(m.generators):
        for x in range(m.size):
            assert m.right[k][x] == m.mul(x, g)
            assert m.left[k][x] == m.mul(g, x)
    gs = mon.green(m)
    want = green_principal_ideals(m)
    for key, value in want.items():
        assert getattr(gs, key) == value, key


def test_traced_closure_error():
    p4 = zoo.build("P4")
    x = p4.index[dg.from_blocks([[1, 2, -1], [3, -2], [4, -3, -4]], 4)]
    assert p4.mul(x, x) not in (p4.identity, x)
    with pytest.raises(ValidationError):
        p4.submonoid([p4.identity, x])


def test_relation_closure_error():
    r = rel.from_pairs(2, [(1, 2)])  # r*r is empty
    with pytest.raises(ValidationError):
        monoid_by_products(
            [r], rel.compose, rel.identity_rel(2), [rel.identity_rel(2), r],
        )


def test_generates_checks_the_closure_size():
    p4 = zoo.build("P4")
    assert generates(p4, p4.generators)
    assert not generates(p4, p4.generators[:-1])
    d0 = zoo.build("D03")  # a semigroup: no identity to adjoin for free
    assert generates(d0, range(d0.size))
    assert not generates(d0, [0])


@pytest.mark.parametrize(
    "name", SMALL + ["Pfd4", "RR4", "LL4", "I4", "J4", "T4"]
)
def test_structural_predicates_match_pairwise_oracles(name):
    m = zoo.build(name)
    assert mon.is_regular(m) == regular_pairwise(m)
    assert mon.is_inverse(m) == inverse_pairwise(m)
    assert mon.right_zeros(m) == right_zeros_pairwise(m)


@pytest.mark.parametrize("family", zoo.FAMILIES)
def test_every_built_monoid_carries_certified_generators(family):
    for n in range(top_degree(family) + 1):
        m = zoo.build(f"{family}{n}")
        assert len(m.right) == len(m.left) == len(m.generators), f"{family}{n}"
        for action in (*m.right, *m.left):
            assert type(action) is tuple, f"{family}{n}"
            assert len(action) == m.size, f"{family}{n}"
        assert generates(m, m.generators), f"{family}{n}"


@pytest.mark.parametrize("name", ["J3", "RP2", "Pfk3", "I4", "Pfd4", "RR4"])
def test_each_submonoid_generator_is_new(name):
    # the greedy adds a candidate only when the earlier ones miss it
    m = zoo.build(name)
    op = lambda x, g: g if x is None else m.mul(x, g)  # Pfk3 has no identity
    for k, g in enumerate(m.generators):
        assert g not in closure(m.generators[:k], op, m.identity), (name, k)


def test_submonoid_generators_cover_semigroups_and_regular_parts():
    d0 = zoo.build("D03")  # no identity: every element is a generator
    assert d0.identity is None
    assert sorted(d0.generators) == list(range(d0.size))
    p3 = zoo.build("P3")
    reg = p3.submonoid(eh.reg_e(p3, zoo.semilattice_for("F", "P3")))
    assert mon.is_inverse(reg)  # J_3
    assert generates(reg, reg.generators)


def test_construction_computes_no_green_structure():
    # a fresh P3, not zoo.build's cached one, on which other tests call
    # green: cutting a family, testing a subset for closure and validating
    # a semilattice each read no Green's structure
    m = zoo._partition_monoid(3)
    sub = m.submonoid(zoo.family_cut(zoo.FamilySpec.parse("RR3")))
    assert sub.size == zoo.build("RR3").size
    assert m._green is None and sub._green is None
    subset = list(range(0, m.size, 9))
    assert not m.closed(subset) and escape_pairwise(m, subset) is not None
    assert m._green is None
    f = eh.Semilattice.create(
        m, [m.index[dg.id_equiv(q)] for q in zoo.equivalences(3)]
    )
    assert len(f.members) == zoo.bell(3)
    assert m._green is None


@pytest.mark.parametrize(
    "indices", [[15], [-1, 6], [True], [True, False], [1.0], ["0"], [None]]
)
def test_index_subsets_are_checked_before_any_product(indices):
    # unchecked, [15] would raise IndexError, [-1, 6] a KeyError in closed,
    # and the bools would pass as the indices 1 and 0
    p2 = zoo.build("P2")
    calls = (
        p2.submonoid, p2.closed,
        lambda idx: eh.Semilattice.create(p2, idx),
    )
    for call in calls:
        with pytest.raises(ValidationError, match="not an element index"):
            call(indices)


@pytest.mark.parametrize("name", ["P3", "P4"])
def test_escape_matches_pairwise_on_random_subsets(name):
    # half plain random subsets, half closed up under products from one or
    # two random elements, each walked in a shuffled order
    s = zoo.build(name)
    rng = random.Random(17)
    closed = 0
    for i in range(200):
        if i % 2:
            subset = set(rng.sample(range(s.size), 1 + (name == "P3")))
            frontier = list(subset)
            for x in frontier:  # grows while it is walked
                for y in list(subset):
                    for p in (s.mul(x, y), s.mul(y, x)):
                        if p not in subset:
                            subset.add(p)
                            frontier.append(p)
        else:
            subset = rng.sample(range(s.size), rng.randint(1, 40))
        subset = list(subset)
        rng.shuffle(subset)
        want = escape_pairwise(s, subset) is None
        assert s.closed(subset) is want
        closed += want
    assert 0 < closed < 200
