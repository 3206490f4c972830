"""Family constructors: sizes, predicates, rook plumbing, fixed witnesses."""

import random
import time

import pytest

from diagmon import diagrams as dg
from diagmon import zoo
from diagmon.errors import ResourceCapError, ValidationError

from oracles import (
    bell_numbers,
    block_bijection_count,
    family_member,
    full_domain_count,
    is_brauer,
    leq_l_structural,
    leq_r_prime_structural,
    leq_r_structural,
    odd_double_factorial,
    partial_bijection_count,
    partial_functions_by_filter,
    rook_multiply,
    top_degree,
)

BELL = bell_numbers(10)

# sizes frozen after cross-checking against the combinatorial formulas, up
# to the last degree the element budget admits
FROZEN_SIZES = {
    "P": [1, 2, 15, 203, 4140],
    "B": [1, 1, 3, 15, 105],
    "PB": [1, 2, 10, 76, 764],
    "I": [1, 2, 7, 34, 209],
    "J": [1, 1, 3, 25, 339],
    "T": [1, 1, 4, 27, 256],
    "PT": [1, 2, 9, 64, 625],
    "Pfd": [1, 1, 5, 52, 855],
    "Pfcd": [1, 1, 5, 52, 855],
    "Pfk": [1, 2, 5, 15, 52],
    "RR": [1, 2, 7, 57, 870],
    "LL": [1, 2, 7, 57, 870],
    "RJ": [1, 2, 12, 128],
    "RP": [1, 5, 52, 877],
    "BX": [1, 2, 16, 512],
    "D0": [1, 1, 2, 5, 15],
    "D1": [1, 1, 3, 10, 37],
}


@pytest.mark.parametrize("family", sorted(FROZEN_SIZES))
def test_frozen_family_sizes(family):
    for n, want in enumerate(FROZEN_SIZES[family]):
        assert len(zoo.build(f"{family}{n}").elements) == want
    with pytest.raises(ResourceCapError):
        zoo.build(f"{family}{len(FROZEN_SIZES[family])}")


def test_counting_helpers():
    assert [zoo.bell(n) for n in range(6)] == [1, 1, 2, 5, 15, 52]
    assert zoo.stirling2(4, 2) == 7
    assert zoo.FAMILIES["B"].size(3) == 15
    assert zoo.FAMILIES["P"].size(3) == 203
    assert zoo.FAMILIES["RP"].size is None


def test_families_with_a_closed_form_size():
    # a new formula is a deliberate edit of this set
    have = {fam for fam, x in zoo.FAMILIES.items() if x.size}
    assert have == {"B", "BX", "D0", "I", "J", "P", "PT", "T"}


@pytest.mark.parametrize(
    "family", sorted(f for f, x in zoo.FAMILIES.items() if x.size)
)
def test_closed_form_sizes_match_frozen_sizes(family):
    size = zoo.FAMILIES[family].size
    assert [size(n) for n in range(len(FROZEN_SIZES[family]))] == (
        FROZEN_SIZES[family]
    )


def test_sizes_match_formulas():
    for n in range(0, 5):
        assert len(zoo.build(f"P{n}").elements) == BELL[2 * n]
        assert len(zoo.build(f"I{n}").elements) == partial_bijection_count(n)
        assert len(zoo.build(f"J{n}").elements) == block_bijection_count(n)
        assert len(zoo.build(f"Pfd{n}").elements) == full_domain_count(n)
        assert len(zoo.build(f"D0{n}").elements) == BELL[n]
        assert len(zoo.build(f"B{n}").elements) == odd_double_factorial(n)
    for n in range(1, 4):
        assert len(zoo.build(f"BX{n}").elements) == 2 ** (n * n)
        assert len(zoo.build(f"PT{n}").elements) == (n + 1) ** n
        assert len(zoo.build(f"T{n}").elements) == n**n


@pytest.mark.parametrize(
    "family", sorted(f for f, x in zoo.FAMILIES.items() if x.member)
)
def test_family_cuts_match_the_per_element_oracle(family):
    rook = zoo.FAMILIES[family].universe == "rook"
    for n in range(top_degree(family) + 1):
        universe = zoo.partition_universe(n + rook)
        want = tuple(
            i for i, a in enumerate(universe) if family_member(family, a)
        )
        assert zoo.family_cut(zoo.FamilySpec(family, n)) == want, n
        assert zoo.build(f"{family}{n}").elements == [universe[i] for i in want]


@pytest.mark.parametrize("n", range(5))
def test_partial_functions_match_the_filtered_universe(n):
    # listed directly, in the order of the filtered relation universe
    want = partial_functions_by_filter(zoo.relation_universe(n))
    assert zoo.partial_functions(n) == want
    assert len(want) == (n + 1) ** n


def test_family_cuts_cover_each_family_within_its_cap():
    cut = {f: x.universe for f, x in zoo.FAMILIES.items() if x.member}
    for n in range(5):
        assert set(zoo.family_cuts(n)) == set(cut)
    # no extra point to absorb rook dots at degree 0
    for fam, universe in cut.items():
        assert (zoo.family_cuts(0)[fam] == ()) == (universe == "rook"), fam
    for name in ("RJ4", "RP4"):
        with pytest.raises(ResourceCapError):
            zoo.family_cut(zoo.FamilySpec.parse(name))


@pytest.mark.parametrize("name", ["P5", "RP4", "RJ4", "BX4", "PT5"])
def test_names_over_the_budget_are_refused_before_enumeration(
    monkeypatch, name
):
    def enumerate_universe(n):
        raise AssertionError(f"a universe of degree {n} was enumerated")

    for universe in ("partition_universe", "relation_universe",
                     "partial_functions"):
        monkeypatch.setattr(zoo, universe, enumerate_universe)
    with pytest.raises(ResourceCapError):
        zoo.build(name)
    with pytest.raises(ResourceCapError):
        zoo.semilattice_for("E", name)


def test_family_spec_parsing():
    assert zoo.FamilySpec.parse("P3") == zoo.FamilySpec("P", 3)
    assert zoo.FamilySpec.parse("D02") == zoo.FamilySpec("D0", 2)
    assert zoo.FamilySpec.parse("D13") == zoo.FamilySpec("D1", 3)
    assert str(zoo.FamilySpec.parse("RR4")) == "RR4"
    # one spelling per family: ASCII digits, no leading zero
    for fam in zoo.FAMILIES:
        for n in range(top_degree(fam) + 1):
            assert str(zoo.FamilySpec.parse(f"{fam}{n}")) == f"{fam}{n}"
    for bad in ("Q3", "P", "3", "Px3", "p2", "P02", "P\u0662", "D001", "RR04"):
        with pytest.raises(ValidationError):
            zoo.FamilySpec.parse(bad)
    for fam, n in (("XYZ", 2), ("P", -1), ("P", True), ("P", 2.0)):
        with pytest.raises(ValidationError):
            zoo.FamilySpec(fam, n)
    with pytest.raises(ResourceCapError):
        zoo.build("P5")
    # the budget walks the degrees up from 0 and stops at P5, so a huge
    # degree is refused without sizing its own universe
    start = time.perf_counter()
    with pytest.raises(ResourceCapError):
        zoo.FamilySpec.parse("P" + "9" * 4000)
    assert time.perf_counter() - start < 0.05


def test_family_records_are_not_tuples():
    # perfbench's tracer rebuilds each tuple value of a module-level dict
    # as a plain tuple, FAMILIES included
    assert not any(isinstance(f, tuple) for f in zoo.FAMILIES.values())


# the kinds ``semilattice_for`` accepts for each family at degrees 0, 1, ...
# up to its top degree; the kinds a family has depend on its degree
ACCEPTED_KINDS = {
    "P": "EFG EFG EFG EFG EFG",
    "B": "EFG FG - - -",
    "PB": "EFG EFG E E E",
    "RP": "EFG EFG EFG EFG",
    "I": "EFG EFG E E E",
    "J": "EFG FG FG FG FG",
    "T": "EFG FG - - -",
    "PT": "E E E E E",
    "Pfd": "EFG FG FG FG FG",
    "Pfcd": "EFG FG FG FG FG",
    "Pfk": "EFG EFG - - -",
    "RR": "EFG EFG FG FG FG",
    "LL": "EFG EFG FG FG FG",
    "RJ": "EFG FG FG FG",
    "BX": "E E E E",
    "D0": "EFG - - - -",
    "D1": "EFG FG - - -",
}


def test_accepted_semilattice_kinds_are_pinned():
    assert list(ACCEPTED_KINDS) == list(zoo.FAMILIES)
    for fam, want in ACCEPTED_KINDS.items():
        got = []
        for n in range(top_degree(fam) + 1):
            kinds = ""
            for kind in zoo.SEMILATTICE_KINDS:
                try:
                    zoo.semilattice_for(kind, f"{fam}{n}")
                except ValidationError:
                    continue
                kinds += kind
            got.append(kinds or "-")
        assert " ".join(got) == want, fam


def test_semilattice_sizes():
    assert len(zoo.semilattice_for("E", "P3").members) == 8
    assert len(zoo.semilattice_for("F", "P3").members) == BELL[3]
    assert len(zoo.semilattice_for("E", "BX2").members) == 4
    assert len(zoo.semilattice_for("G", "RP2").members) == BELL[3]
    assert len(zoo.semilattice_for("F", "RP2").members) == BELL[2]
    with pytest.raises(ValidationError):
        zoo.semilattice_for("F", "BX2")
    with pytest.raises(ValidationError):
        zoo.semilattice_for("Q", "P2")


def test_brauer_submonoid_closed():
    b3 = zoo.build("B3")
    for a in b3.elements:
        assert is_brauer(a)
    p3 = zoo.build("P3")
    assert p3.closed([p3.index[a] for a in b3.elements])


def test_partial_function_diagrams_not_closed_in_partition_monoid():
    # the diagram analogue of a non-injective map times a partial identity
    # acquires an upper non-transversal, so no diagram family mirrors PT
    f = dg.from_blocks([[1, 2, -1], [-2]], 2)
    g = dg.id_subset(2, [2])
    prod = dg.multiply(f, g)
    assert frozenset((1, 2)) in set(map(frozenset, prod.blocks()))


def test_rook_product_matches_reference():
    rng = random.Random(13)
    rp2 = zoo.build("RP2")
    pool = list(rp2.elements)
    for _ in range(200):
        a, b = rng.choice(pool), rng.choice(pool)
        got = dg.multiply(a, b)
        ga = split_rook(a)
        gb = split_rook(b)
        blocks, dots = rook_multiply(ga, gb, 2)
        want_blocks, want_dots = split_rook(got)
        assert frozenset(map(frozenset, want_blocks)) == blocks
        assert tuple(want_dots) == dots


def split_rook(a):
    """Split a degree-(n+1) rook representative into (blocks, dots)."""
    n = a.n - 1
    blocks, dots = [], []
    for block in a.blocks():
        if any(abs(x) == n + 1 for x in block):
            dots = [x for x in block if abs(x) != n + 1]
        else:
            blocks.append(block)
    return blocks, dots


def test_rook_embed_and_lift():
    a = zoo.rook_embed([[1, -1]], 2, rook_dots=[2, -2])
    assert set(map(frozenset, a.blocks())) == {
        frozenset({1, -1}),
        frozenset({2, -2, 3, -3}),
    }
    b = dg.from_blocks([[1, 2, -1], [-2]], 2)
    lifted = zoo.lift_to_rook(b)
    assert family_member("RP", lifted)
    assert frozenset({3, -3}) in set(map(frozenset, lifted.blocks()))
    with pytest.raises(ValidationError):
        zoo.rook_embed([[1, -1]], 2, rook_dots=[5])


def test_no_rook_dots_is_the_partition_copy():
    for a in zoo.build("P2").elements:
        image = zoo.rook_embed(a.blocks(), 2)
        assert image == zoo.lift_to_rook(a)


def test_fixed_witnesses_have_expected_parameters():
    w = zoo.witness_sets()
    assert dg.multiply(w["alpha6"], w["beta6"]) == w["alpha_beta6"]
    ne = w["not_e"]
    assert dg.params(ne["alpha"]).supp == dg.params(ne["beta"]).supp
    he = w["h_escape"]
    assert dg.params(he["alpha"]).rank == 2
    rook = w["rook"]
    assert all(family_member("RP", x) for x in rook.values())


def test_order_characterizations_spot_checks():
    # fusing blocks of b while keeping its lower non-transversals
    b = dg.from_blocks([[1, -1], [2], [-2]], 2)
    a = dg.from_blocks([[1, 2, -1], [-2]], 2)
    assert leq_r_structural(a, b)
    assert not leq_r_structural(b, a)
    # removing upper points from blocks of b
    c = dg.from_blocks([[1], [2], [-1], [-2]], 2)
    d = dg.from_blocks([[1, -1], [2, -2]], 2)
    assert leq_r_prime_structural(c, d)
    assert not leq_r_prime_structural(d, c)
    assert leq_r_prime_structural(d, d)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generated_below_sets_match_the_pairwise_oracles(n):
    universe = zoo.partition_universe(n)
    orders = (
        (lambda y: zoo.block_identity_below(y, "left"), leq_r_structural),
        (lambda y: zoo.block_identity_below(y, "right"), leq_l_structural),
        (zoo.partial_identity_below, leq_r_prime_structural),
    )
    for below, oracle in orders:
        for y in universe:
            assert set(below(y)) == {x for x in universe if oracle(x, y)}


def test_generated_below_sets_spot_checks():
    # the identity of P_2: merging its two transversals, nothing frozen
    one = dg.identity(2)
    merged = dg.from_blocks([[1, 2, -1, -2]], 2)
    assert set(zoo.block_identity_below(one, "left")) == {one, merged}
    # a lower non-transversal stays whole in x in Fy, an upper one in x in yF
    b = dg.from_blocks([[1, -1], [2], [-2]], 2)
    assert set(zoo.block_identity_below(b, "left")) == {
        b, dg.from_blocks([[1, 2, -1], [-2]], 2)
    }
    assert set(zoo.block_identity_below(b, "right")) == {
        b, dg.from_blocks([[1, -1, -2], [2]], 2)
    }
    # 2^n splittings, fewer distinct diagrams once upper points are alone
    assert len(zoo.partial_identity_below(one)) == 4
    assert len(set(zoo.partial_identity_below(b))) == 2
