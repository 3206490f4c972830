"""Binary-relation composition, converse, and membership predicates."""

import random

import pytest

from diagmon import relations as rel
from diagmon.errors import DegreeMismatchError, ValidationError
from diagmon.zoo import relation_universe

from oracles import (
    empty_rel,
    full_rel,
    is_total_function,
    relation_predicates,
)


def compose_by_pairs(a, b):
    pairs = {
        (x, y)
        for (x, u) in a.pairs()
        for (v, y) in b.pairs()
        if u == v
    }
    return rel.from_pairs(a.n, pairs)


def test_compose_matches_pair_definition_exhaustive_degree_2():
    u = relation_universe(2)
    for a in u:
        for b in u:
            assert rel.compose(a, b) == compose_by_pairs(a, b)


def test_compose_matches_pair_definition_sampled_degree_3():
    u = relation_universe(3)
    rng = random.Random(3)
    for _ in range(600):
        a, b = rng.choice(u), rng.choice(u)
        assert rel.compose(a, b) == compose_by_pairs(a, b)


def test_converse_laws():
    u = relation_universe(2)
    for a in u:
        assert rel.converse(rel.converse(a)) == a
        for b in u:
            assert rel.converse(rel.compose(a, b)) == rel.compose(
                rel.converse(b), rel.converse(a)
            )


def test_identity_empty_full():
    n = 3
    e = rel.identity_rel(n)
    z = empty_rel(n)
    f = full_rel(n)
    for a in relation_universe(n)[:50]:
        assert rel.compose(e, a) == a
        assert rel.compose(a, e) == a
        assert rel.compose(z, a) == z
    assert rel.compose(f, f) == f
    assert rel.partial_identity(n, range(1, n + 1)) == e


def test_function_predicates_against_pair_counts():
    for a in relation_universe(3):
        rows = [
            sum(1 for (x, _) in a.pairs() if x == i) for i in range(1, 4)
        ]
        assert rel.is_partial_function(a) == all(c <= 1 for c in rows)
        assert is_total_function(a) == all(c == 1 for c in rows)
        if rel.is_partial_bijection(a):
            cols = [
                sum(1 for (_, y) in a.pairs() if y == j)
                for j in range(1, 4)
            ]
            assert all(c <= 1 for c in cols)


def test_partial_functions_closed_under_composition():
    pf = [a for a in relation_universe(2) if rel.is_partial_function(a)]
    for a in pf:
        for b in pf:
            assert rel.is_partial_function(rel.compose(a, b))


def test_kernel_need_not_be_transitive():
    # 1 and 2 share an image point with 3, but not with each other
    a = rel.from_pairs(3, [(1, 1), (3, 1), (3, 2), (2, 2)])
    p = rel.rel_params(a)
    assert (1, 3) in p.ker and (3, 2) in p.ker and (1, 2) not in p.ker


def test_rel_params_domain_codomain():
    a = rel.from_pairs(3, [(1, 2), (1, 3)])
    p = rel.rel_params(a)
    assert p.dom == frozenset({1})
    assert p.codom == frozenset({2, 3})
    q = relation_predicates(a)
    assert q.injective and not q.coinjective
    assert not q.surjective and not q.cosurjective


@pytest.mark.parametrize("n", range(4))
def test_rel_params_domain_codomain_match_the_pairs(n):
    for a in relation_universe(n):
        p = rel.rel_params(a)
        assert p.dom == frozenset(x for x, _ in a.pairs())
        assert p.codom == frozenset(y for _, y in a.pairs())


@pytest.mark.parametrize("n", range(4))
def test_json_round_trip_every_relation(n):
    for a in relation_universe(n):
        assert rel.BinaryRelation.from_json(a.to_json()) == a


@pytest.mark.parametrize(
    "build",
    [
        # True == 1, so an unchecked bool pair is the relation {(1, 1)}
        lambda: rel.from_pairs(2, [(True, True)]),
        # a float point used to reach a list index: a bare TypeError
        lambda: rel.partial_identity(2, [1.0]),
    ],
    ids=["bool-pair", "float-partial-identity"],
)
def test_points_must_be_exactly_int(build):
    with pytest.raises(ValidationError, match="not of integers"):
        build()


def test_json_round_trip_and_errors():
    a = rel.from_pairs(2, [(1, 2), (2, 2)])
    assert rel.BinaryRelation.from_json(a.to_json()) == a
    with pytest.raises(ValidationError):
        rel.from_pairs(2, [(0, 1)])
    with pytest.raises(DegreeMismatchError):
        rel.compose(rel.identity_rel(2), rel.identity_rel(3))
