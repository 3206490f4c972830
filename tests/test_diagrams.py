"""Diagram arithmetic against a reference implementation and frozen values."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagmon import diagrams as dg
from diagmon import relations as rel
from diagmon.errors import DegreeMismatchError, ValidationError
from diagmon.zoo import partition_universe, relation_universe

from oracles import (
    involute,
    is_brauer,
    is_partial_brauer,
    multiply_blocks,
    params_from_blocks,
    set_partition_classes,
    set_partition_from_blocks,
    set_partition_join,
)

ALPHA6 = [[1, 4], [2, 3, -4, -5], [5, 6], [-1, -2, -6], [-3]]
BETA6 = [[1, 2], [3, 4, -1], [5, -4, -5, -6], [6], [-2], [-3]]
PRODUCT6 = [[1, 4], [2, 3, -1, -4, -5, -6], [5, 6], [-2], [-3]]


def test_fixed_product_degree_6():
    a = dg.from_blocks(ALPHA6, 6)
    b = dg.from_blocks(BETA6, 6)
    assert dg.multiply(a, b) == dg.from_blocks(PRODUCT6, 6)


def test_fixed_parameters_degree_6():
    pa = dg.params(dg.from_blocks(ALPHA6, 6))
    pb = dg.params(dg.from_blocks(BETA6, 6))
    assert pa.rank == 1
    assert pa.dom == frozenset({2, 3})
    assert set_partition_classes(pa.coker) == (
        frozenset({1, 2, 6}),
        frozenset({3}),
        frozenset({4, 5}),
    )
    assert pb.supp == frozenset({1, 2, 3, 4, 5})
    assert pb.cosupp == frozenset({1, 4, 5, 6})


def blocks_of(a):
    return frozenset(map(frozenset, a.blocks()))


def test_multiplication_matches_reference_exhaustively_degree_2():
    u = partition_universe(2)
    for a in u:
        for b in u:
            want = multiply_blocks(a.blocks(), b.blocks(), 2)
            assert blocks_of(dg.multiply(a, b)) == want


def test_multiplication_matches_reference_sampled_degree_3():
    u = partition_universe(3)
    rng = random.Random(7)
    for _ in range(500):
        a, b = rng.choice(u), rng.choice(u)
        want = multiply_blocks(a.blocks(), b.blocks(), 3)
        assert blocks_of(dg.multiply(a, b)) == want


def test_identity_and_absorbing_diagrams():
    for n in range(0, 4):
        e = dg.identity(n)
        z = dg.zeta(n)
        for a in partition_universe(n):
            assert dg.multiply(e, a) == a
            assert dg.multiply(a, e) == a
        assert dg.multiply(z, z) == z


def test_involution_laws_exhaustive_degree_2():
    u = partition_universe(2)
    for a in u:
        assert involute(involute(a)) == a
        # regular *-monoid law
        assert dg.multiply(dg.multiply(a, involute(a)), a) == a
        for b in u:
            assert involute(dg.multiply(a, b)) == dg.multiply(
                involute(b), involute(a)
            )


@pytest.mark.parametrize("n", range(4))
def test_params_match_the_block_oracle(n):
    for a in partition_universe(n):
        p = dg.params(a)
        got = {
            "dom": p.dom, "codom": p.codom,
            "ker": frozenset(set_partition_classes(p.ker)),
            "coker": frozenset(set_partition_classes(p.coker)),
            "rank": p.rank, "supp": p.supp, "cosupp": p.cosupp,
        }
        assert got == params_from_blocks(a), a
        # plain values: the point sets are frozensets, not wrappers
        assert {type(s) for s in (p.dom, p.codom, p.supp, p.cosupp)} == {
            frozenset
        }


@pytest.mark.parametrize(
    "make, n, points",
    [(dg.id_subset, 2, [3]), (dg.id_subset, 2, [0]), (dg.id_subset, 2, [-1]),
     (rel.partial_identity, 2, [0]), (rel.partial_identity, 2, [3])],
)
def test_partial_identities_reject_points_out_of_range(make, n, points):
    with pytest.raises(ValidationError):
        make(n, points)


def test_involution_swaps_parameters():
    for a in partition_universe(3):
        p = dg.params(a)
        q = dg.params(involute(a))
        assert (p.dom, p.ker, p.supp) == (q.codom, q.coker, q.cosupp)
        assert p.rank == q.rank


def test_associativity_sampled_degree_3():
    u = partition_universe(3)
    rng = random.Random(11)
    for _ in range(400):
        a, b, c = rng.choice(u), rng.choice(u), rng.choice(u)
        assert dg.multiply(dg.multiply(a, b), c) == dg.multiply(
            a, dg.multiply(b, c)
        )


@st.composite
def partitions(draw, max_degree=4):
    n = draw(st.integers(min_value=0, max_value=max_degree))
    labels = draw(
        st.lists(
            st.integers(min_value=0, max_value=2 * n),
            min_size=2 * n,
            max_size=2 * n,
        )
    )
    return dg.Partition(n, dg._canonical(labels))


@given(partitions())
@settings(max_examples=150, deadline=None)
def test_canonical_form_is_block_order_invariant(a):
    blocks = list(a.blocks())
    rng = random.Random(sum(map(len, blocks)))
    for _ in range(3):
        shuffled = [list(b) for b in blocks]
        rng.shuffle(shuffled)
        for b in shuffled:
            rng.shuffle(b)
        assert dg.from_blocks(shuffled, a.n) == a


@given(partitions())
@settings(max_examples=150, deadline=None)
def test_json_round_trip(a):
    assert dg.Partition.from_json(a.to_json()) == a


@pytest.mark.parametrize("n", [True, False, -1, 2.0, "1", None])
@pytest.mark.parametrize(
    "decode, key, points",
    [(dg.Partition.from_json, "blocks", [[1, -1]]),
     (rel.BinaryRelation.from_json, "pairs", [[1, 1]])],
)
def test_json_decoders_reject_bad_degrees(decode, key, points, n):
    # a bool is not a degree: unchecked, True with points on 1 would equal
    # the degree-1 identity, and False or -1 an element of that "degree"
    with pytest.raises(ValidationError, match="degree"):
        decode({"n": n, key: points if n is True else []})


@pytest.mark.parametrize(
    "build",
    [
        # True == 1, so an unchecked bool point builds the identity of P2
        lambda: dg.from_blocks([[True, -1], [2, -2]], 2),
        # a float point used to reach a list index: a bare TypeError
        lambda: dg.from_blocks([[1.0, -1], [2, -2]], 2),
        lambda: dg.id_subset(2, [1.0]),
    ],
    ids=["bool-block", "float-block", "float-id-subset"],
)
def test_points_must_be_exactly_int(build):
    with pytest.raises(ValidationError, match="not an integer"):
        build()


def test_refinement_properties():
    u = partition_universe(2)
    for a in u:
        assert dg.refines(a.code, a.code)
        for b in u:
            if dg.refines(a.code, b.code) and dg.refines(b.code, a.code):
                assert a == b


def test_brauer_predicates():
    u = partition_universe(2)
    assert sum(is_brauer(a) for a in u) == 3
    assert sum(is_partial_brauer(a) for a in u) == 10


def test_validation_errors():
    with pytest.raises(ValidationError):
        dg.from_blocks([[1, 3], [-1]], 2)  # vertex out of range
    with pytest.raises(ValidationError):
        dg.from_blocks([[1, 2], [2, -1, -2]], 2)  # duplicate vertex
    with pytest.raises(ValidationError):
        dg.from_blocks([[1, 2, -1]], 2)  # -2 uncovered
    with pytest.raises(DegreeMismatchError):
        dg.multiply(dg.identity(2), dg.identity(3))


def test_refines_rejects_codes_of_different_lengths():
    with pytest.raises(DegreeMismatchError):
        dg.refines((0, 0), (0, 0, 0))


def test_hashes_are_those_of_the_plain_tuples():
    # a diagram or a relation hashes as the tuple of its fields, as it did
    # when it cached hash((n, code)): every dict and set keeps its order
    for n in range(4):
        for a in partition_universe(n):
            assert hash(a) == hash((a.n, a.code))
    for n in range(3):
        for a in relation_universe("BX", n):
            assert hash(a) == hash((a.n, a.rows))


def test_set_partition_join_and_refines():
    a = set_partition_from_blocks(4, [[1, 2], [3], [4]])
    b = set_partition_from_blocks(4, [[1], [2, 3], [4]])
    assert set_partition_join(a, b) == set_partition_from_blocks(
        4, [[1, 2, 3], [4]]
    )
    assert dg.refines(a, set_partition_join(a, b))
    assert not dg.refines(set_partition_join(a, b), a)
