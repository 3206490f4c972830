"""Categories, the basis transform, Mobius inversion, and radicals."""

import random
import tracemalloc
from fractions import Fraction
from itertools import islice
from math import comb, factorial, isqrt

import pytest

from diagmon import algebra, diagrams as dg, ehresmann as eh, zoo
from diagmon.errors import StateError, ValidationError
from diagmon.monoid import froidure_pin

from oracles import (
    algebra_associative,
    algebra_multiply,
    category_algebra,
    compose,
    gram_fractions,
    is_unitriangular,
    matrix_to_json,
    mobius_dense,
    radical_nullity,
    rref_mod_lists,
    stein_generator_pairs,
    stein_pairwise,
    table_algebra,
    top_degree,
    zeta_dense,
)

# the Ehresmann pairs whose category algebras the verify suites use
CATEGORY_PAIRS = (
    ("PT2", "E"), ("PT3", "E"), ("I2", "E"), ("Pfd2", "F"), ("Pfd3", "F"),
)


def _families(max_degree):
    for fam in zoo.FAMILIES:
        for n in range(min(top_degree(fam), max_degree) + 1):
            yield f"{fam}{n}"


def _category_algebra(name, kind):
    cat = algebra.build_category(zoo.build(name), zoo.semilattice_for(kind, name))
    return category_algebra(cat)


def test_hom_sets_partition_the_monoid():
    for name, kind in (("PT2", "E"), ("P2", "F"), ("I2", "E")):
        s = zoo.build(name)
        cat = algebra.build_category(s, zoo.semilattice_for(kind, name))
        assert sum(len(v) for v in cat.hom.values()) == s.size
        for x in range(s.size):
            assert x in cat.hom[(cat.plus[x], cat.star[x])]
        # composition lands in the right hom set
        for (e, f), xs in cat.hom.items():
            for (f2, g), ys in cat.hom.items():
                if f != f2:
                    continue
                for x in xs:
                    for y in ys:
                        assert compose(cat, x, y) in cat.hom[(e, g)]


def test_objects_act_as_identities_on_their_hom_sets():
    s = zoo.build("PT2")
    cat = algebra.build_category(s, zoo.semilattice_for("E", "PT2"))
    for e in cat.objects():
        assert e in cat.endomorphisms(e)
        for x in cat.endomorphisms(e):
            assert s.mul(e, x) == x and s.mul(x, e) == x


def test_block_category_hom_sizes_count_partial_bijections():
    s = zoo.build("P3")
    f = zoo.semilattice_for("F", "P3")
    cat = algebra.build_category(s, f)
    classes_of = {
        i: len(set(dg.params(s.decode(i)).ker)) for i in f.members
    }
    for (e, g), xs in cat.hom.items():
        a, b = classes_of[e], classes_of[g]
        want = sum(
            comb(a, k) * comb(b, k) * factorial(k)
            for k in range(min(a, b) + 1)
        )
        assert len(xs) == want


def test_category_requires_the_axioms():
    s = zoo.build("P2")
    with pytest.raises(StateError):
        algebra.build_category(s, zoo.semilattice_for("E", "P2"))


def test_ei_examples():
    pfd2 = zoo.build("Pfd2")
    flag, _ = algebra.is_ei(
        algebra.build_category(pfd2, zoo.semilattice_for("F", "Pfd2"))
    )
    assert flag
    rr2 = zoo.build("RR2")
    flag, witness = algebra.is_ei(
        algebra.build_category(rr2, zoo.semilattice_for("F", "RR2"))
    )
    assert not flag
    assert rr2.decode(witness) == dg.zeta(2)
    pt2 = zoo.build("PT2")
    flag, _ = algebra.is_ei(
        algebra.build_category(pt2, zoo.semilattice_for("E", "PT2"))
    )
    assert flag


def test_mobius_of_chain_and_antichain():
    # chain 0 < 1 < 2
    chain = [frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2})]
    m = algebra.mobius_inverse(chain)
    assert list(m) == [[1, -1, 0], [0, 1, -1], [0, 0, 1]]
    antichain = [frozenset({i}) for i in range(4)]
    assert list(algebra.mobius_inverse(antichain)) == [
        [1 if i == j else 0 for j in range(4)] for i in range(4)
    ]
    # each read makes a new row
    m[0][1] = 7
    assert len(m) == 3 and m[0] == [1, -1, 0] and m[-1] == [0, 0, 1]


def test_mobius_rejects_a_non_transitive_order():
    # 0 <= 1 and 1 <= 2 but not 0 <= 2
    for mobius in (algebra.mobius_inverse, mobius_dense):
        with pytest.raises(StateError):
            mobius([{0}, {0, 1}, {1, 2}])


def test_transform_shapes_and_triangularity():
    s = zoo.build("PT2")
    e = zoo.semilattice_for("E", "PT2")
    z = algebra.stein_transform(s, e, "left")
    assert len(z) == 9 and all(len(row) == 9 for row in z)
    below = algebra.natural_order(s, e, "left")
    assert is_unitriangular(z, algebra.topological_order(below))
    # trivial monoid
    t = zoo.build("P0")
    f = zoo.semilattice_for("F", "P0")
    assert list(algebra.stein_transform(t, f, "left")) == [[1]]


def test_transform_requires_the_right_containment():
    pfd2 = zoo.build("Pfd2")
    f = zoo.semilattice_for("F", "Pfd2")
    assert algebra.verify_stein(pfd2, f, "right")
    with pytest.raises(StateError):
        algebra.stein_transform(pfd2, f, "left")
    with pytest.raises(ValidationError):
        algebra.stein_transform(pfd2, f, "sideways")


def test_transform_rejects_an_order_without_a_unitriangular_zeta_matrix(
    monkeypatch,
):
    s = zoo.build("PT2")
    e = zoo.semilattice_for("E", "PT2")
    below = algebra.natural_order(s, e, "left")
    assert algebra.verify_stein(s, e, "left")
    # an order that is not reflexive, or has a cycle, has no unitriangular
    # zeta matrix
    for bad in ([b - {y} for y, b in enumerate(below)],
                [b | {0} if y == 1 else b | {1} if y == 0 else b
                 for y, b in enumerate(below)]):
        monkeypatch.setattr(algebra, "natural_order", lambda *_: bad)
        with pytest.raises(StateError):
            algebra.stein_transform(s, e, "left")
        with pytest.raises(StateError):
            algebra.verify_stein(s, e, "left")


def test_transform_checks_its_semilattice_lies_in_the_monoid():
    e = zoo.semilattice_for("E", "PT2")
    for call in (algebra.stein_transform, algebra.verify_stein):
        with pytest.raises(ValidationError):
            call(zoo.build("PT3"), e, "left")
    with pytest.raises(ValidationError):
        algebra.build_category(zoo.build("PT3"), e)


def _stein_cases(max_degree):
    """(name, kind, side) for each family up to max_degree with a transform."""
    for name in _families(max_degree):
        for kind in ("E", "F", "G"):
            try:
                e = zoo.semilattice_for(kind, name)
            except ValidationError:
                continue
            for side in ("left", "right"):
                try:
                    algebra.stein_transform(zoo.build(name), e, side)
                except StateError:
                    continue
                yield name, kind, side


# the degree-4 transforms the CLI writes and the benchmark hashes
DEGREE4_STEIN = (("PT4", "E", "left"), ("Pfd4", "F", "right"),
                 ("RR4", "F", "right"))


def test_sparse_matrices_match_the_dense_oracles():
    cases = [*_stein_cases(3), *DEGREE4_STEIN]
    for name, kind, side in cases:
        s = zoo.build(name)
        e = zoo.semilattice_for(kind, name)
        below = algebra.natural_order(s, e, side)
        m = algebra.mobius_inverse(below)
        assert list(map(list, m)) == mobius_dense(below), (name, kind, side)
        z = algebra.stein_transform(s, e, side)
        assert list(map(list, z)) == zeta_dense(below), (name, kind, side)
        assert len(z) == len(m) == s.size
    assert len(cases) == 201


def _traced_peak(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name, kind, side", DEGREE4_STEIN[1:])
def test_transform_matrices_are_held_sparse(name, kind, side):
    # a dense d x d list of ints takes 5.9-6.8 MB traced at d = 855 or 870
    s = zoo.build(name)
    e = zoo.semilattice_for(kind, name)
    below = algebra.natural_order(s, e, side)
    algebra.stein_transform(s, e, side)  # the report, built and cached
    assert _traced_peak(algebra.mobius_inverse, below) < 1.5e6
    assert _traced_peak(algebra.stein_transform, s, e, side) < 1.5e6


def _category_and_phi(name, kind, side):
    s = zoo.build(name)
    e = zoo.semilattice_for(kind, name)
    phi = [sorted(b) for b in algebra.natural_order(s, e, side)]
    return algebra.build_category(s, e), phi


def test_verify_stein_matches_the_pairwise_oracle():
    cases = list(_stein_cases(3))
    for name, kind, side in cases:
        s = zoo.build(name)
        e = zoo.semilattice_for(kind, name)
        cat, phi = _category_and_phi(name, kind, side)
        assert algebra.verify_stein(s, e, side) == stein_pairwise(cat, phi)
        assert algebra.is_multiplicative(cat, phi) == stein_generator_pairs(
            cat, phi
        ), (name, kind, side)
    assert len(cases) == 198


def _perturbations(phi):
    """phi with one below-set entry dropped, or with two below sets swapped."""
    for y, b in enumerate(phi):
        for a in b:
            yield phi[:y] + [[c for c in b if c != a]] + phi[y + 1:]
    for x in range(len(phi)):
        for y in range(x):
            if phi[x] != phi[y]:
                bad = list(phi)
                bad[x], bad[y] = phi[y], phi[x]
                yield bad


@pytest.mark.parametrize("name, kind, side", [
    ("PT2", "E", "left"), ("I2", "E", "right"), ("RJ2", "G", "left"),
])
def test_perturbed_transforms_fail_the_sweep_and_the_oracle(name, kind, side):
    cat, phi = _category_and_phi(name, kind, side)
    assert algebra.is_multiplicative(cat, phi) and stein_pairwise(cat, phi)
    for bad in _perturbations(phi):
        assert not algebra.is_multiplicative(cat, bad)
        assert not stein_pairwise(cat, bad)


def test_sweep_matches_the_oracle_on_every_perturbation_up_to_degree_2():
    for case in _stein_cases(2):
        cat, phi = _category_and_phi(*case)
        for bad in _perturbations(phi):
            swept = algebra.is_multiplicative(cat, bad)
            assert swept == stein_pairwise(cat, bad), case
            assert swept == stein_generator_pairs(cat, bad), case


def test_sweep_compares_products_as_multisets():
    cat, phi = _category_and_phi("PT2", "E", "left")
    # unsorted images: the same map
    unsorted = [b[::-1] for b in phi]
    assert any(b != sorted(b) for b in unsorted)
    # every image twice: phi(x) phi(y) has each product four times, so the
    # sets of products agree with phi(xy) but the multisets do not
    doubled = [b + b for b in unsorted]
    # one image with a repeated entry
    repeated = phi[:3] + [phi[3] + phi[3][:1]] + phi[4:]
    for bad, want in ((unsorted, True), (doubled, False), (repeated, False)):
        assert algebra.is_multiplicative(cat, bad) is want
        assert stein_generator_pairs(cat, bad) is want
        assert stein_pairwise(cat, bad) is want


@pytest.mark.parametrize("name, kind, side", [
    ("PT3", "E", "left"), ("Pfd3", "F", "right"),
])
def test_sweep_on_untabled_copies_matches_the_oracle(
    monkeypatch, name, kind, side
):
    # with the cap below its size the report sweeps the generators only
    s = zoo.build(name)
    e = eh.Semilattice(s, zoo.semilattice_for(kind, name).members)
    with monkeypatch.context() as patch:
        patch.setattr(eh, "TABLE_CAP", 0)
        assert eh.check_axioms(s, e).theta_sweep == "generators"
    cat = algebra.build_category(s, e)
    phi = [sorted(b) for b in algebra.natural_order(s, e, side)]
    assert algebra.verify_stein(s, e, side)
    assert algebra.is_multiplicative(cat, phi)
    assert stein_generator_pairs(cat, phi)
    # the perturbations that drop one entry of one image come first
    for bad in islice(_perturbations(phi), sum(map(len, phi))):
        assert algebra.is_multiplicative(cat, bad) == stein_generator_pairs(
            cat, bad
        )


def test_sweep_needs_the_identity_pairs():
    # a right-zero semigroup {a, b} with an identity adjoined, E = {1}: the
    # map sending 1 to a and fixing a, b passes every (x, generator) pair,
    # but phi(b) phi(1) = b a = a differs from phi(b) = b
    s = froidure_pin(["a", "b"], lambda x, g: g, "1", ["1", "a", "b"])
    cat = algebra.build_category(s, eh.Semilattice.create(s, [s.identity]))
    a, b = s.index["a"], s.index["b"]
    phi = [[a], [a], [b]]
    assert s.identity == 0
    assert not algebra.is_multiplicative(cat, phi)
    assert not stein_pairwise(cat, phi)


def test_rational_algebra_associativity_and_products():
    s = zoo.build("PT2")
    a = algebra.RationalAlgebra.of_monoid(s)
    assert algebra_associative(a)
    cat = algebra.build_category(s, zoo.semilattice_for("E", "PT2"))
    c = category_algebra(cat)
    assert algebra_associative(c)
    # vector product with cancellation
    u = {0: Fraction(1, 2), 1: Fraction(-1, 2)}
    v = {s.identity: Fraction(2)}
    prod = algebra_multiply(a, u, v)
    assert prod == {0: Fraction(1), 1: Fraction(-1)}


def test_radical_dimensions():
    # the two-element group: semisimple over the rationals
    op = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
    g = froidure_pin(["s"], lambda x, y: op[(x, y)], "e", ["e", "s"])
    assert algebra.radical_dim(algebra.RationalAlgebra.of_monoid(g)) == 0
    assert (
        algebra.radical_dim(algebra.RationalAlgebra.of_monoid(zoo.build("PT2")))
        == 2
    )
    assert (
        algebra.radical_dim(algebra.RationalAlgebra.of_monoid(zoo.build("Pfd2")))
        == 2
    )
    assert (
        algebra.radical_dim(algebra.RationalAlgebra.of_monoid(zoo.build("I2")))
        == 0
    )
    assert (
        algebra.radical_dim(algebra.RationalAlgebra.of_monoid(zoo.build("P3")))
        == 44
    )
    assert (
        algebra.radical_dim(algebra.RationalAlgebra.of_monoid(zoo.build("I4")))
        == 0
    )


def test_radical_dim_matches_the_rational_oracle_on_monoid_algebras():
    checked = 0
    for name in _families(4):
        s = zoo.build(name)
        if s.size > 64:
            continue
        got = algebra.radical_dim(algebra.RationalAlgebra.of_monoid(s))
        assert got == radical_nullity(table_algebra(s)), name
        checked += 1
    assert checked == 66


def test_radical_dim_matches_the_rational_oracle_on_category_algebras():
    for name, kind in CATEGORY_PAIRS:
        a = _category_algebra(name, kind)
        assert algebra.radical_dim(a) == radical_nullity(a), name


def _gram_algebras():
    """The monoid algebras up to degree 3 and the category algebras, each
    with the algebra the Gram oracle reads: a monoid's products come from
    its table, ``table_algebra``, and a category algebra is its own."""
    monoids = [
        (algebra.RationalAlgebra.of_monoid(s), table_algebra(s))
        for s in map(zoo.build, _families(3))
    ]
    categories = [
        _category_algebra(name, kind) for name, kind in CATEGORY_PAIRS
    ]
    return monoids + [(a, a) for a in categories]


def test_gram_matrix_matches_the_definitional_traces():
    null = algebra.RationalAlgebra(3, lambda i, j: None)
    for a, oracle in _gram_algebras() + [(null, null)]:
        assert algebra._gram(a) == gram_fractions(oracle)


def test_gram_matrix_is_symmetric():
    # t(ij) = tr(L_i L_j) = tr(L_j L_i) = t(ji)
    for a, _ in _gram_algebras():
        g = algebra._gram(a)
        assert all(
            g[i][j] == g[j][i] for i in range(len(g)) for j in range(i)
        )


def test_integer_rank_retries_past_unlucky_primes(monkeypatch):
    primes = algebra._primes
    p1 = next(primes())
    used = []

    def counted():
        for p in primes():
            used.append(p)
            yield p

    monkeypatch.setattr(algebra, "_primes", counted)
    # rank 2 over the rationals, rank 1 mod the first prime
    assert algebra._integer_rank([[p1, 0], [0, 1]]) == 2
    assert len(used) == 2
    # same rank mod p1 but a later pivot; the kernel vector (-1, p1) then
    # needs a modulus above 2 * p1**2, so three good primes are combined
    used.clear()
    assert algebra._integer_rank([[p1, 1], [2 * p1, 2]]) == 1
    assert len(used) == 4
    # a kernel entry of 2**40 + 1 needs a modulus of at least
    # 2 * (2**40 + 1)**2 > 2**81, and three 26-bit primes give under 2**78
    used.clear()
    assert algebra._integer_rank([[1, -(2**40 + 1)], [3, -3 * (2**40 + 1)]]) == 1
    assert len(used) == 4


def test_integer_rank_of_empty_and_zero_matrices():
    assert algebra._integer_rank([]) == 0
    assert algebra._integer_rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert algebra.radical_dim(algebra.RationalAlgebra(0, None)) == 0
    null = algebra.RationalAlgebra(3, lambda i, j: None)
    assert algebra.radical_dim(null) == 3


def test_primes_are_descending_26_bit_primes():
    ps = [p for _, p in zip(range(3), algebra._primes())]
    assert ps[0] == 67_108_859
    assert ps == sorted(ps, reverse=True) and 2**25 < ps[-1] and ps[0] < 2**26
    assert all(pow(2, p - 1, p) == 1 for p in ps)
    # no prime is skipped: trial division finds exactly these
    trial = [
        n for n in range(ps[0] + 1, ps[-1] - 1, -1)
        if all(n % q for q in range(2, isqrt(n) + 1))
    ]
    assert trial == ps


def test_rref_mod_matches_the_list_oracle_on_gram_matrices():
    p = next(algebra._primes())
    algebras = [
        algebra.RationalAlgebra.of_monoid(s)
        for s in map(zoo.build, _families(4))
        if s.size <= 300
    ]
    algebras += [_category_algebra(name, kind) for name, kind in CATEGORY_PAIRS]
    for a in algebras:
        g = algebra._gram(a)
        assert algebra._rref_mod(g, a.dimension, p) == rref_mod_lists(
            g, a.dimension, p
        )


def _test_matrices(rng):
    """Integer matrices of the shapes elimination treats specially."""
    # pivot rows e_k - e_8 and a last row with 1 at every pivot: each update
    # of that row adds the largest possible (p - 1)**2 to its column 8
    rows = [[int(c == k) - int(c == 8) for c in range(10)] for k in range(8)]
    yield rows + [[1] * 8 + [0, 0]]
    yield [[rng.randint(-9, 9)]]
    yield [[0]]
    yield [[rng.randint(-(2**70), 2**70)]]
    for _ in range(40):
        nrows, ncols = rng.randint(1, 80), rng.randint(1, 70)
        rank = rng.randint(0, min(nrows, ncols))
        basis = [
            [rng.randint(-(2**40), 2**40) for _ in range(ncols)]
            for _ in range(rank)
        ]
        rows = []
        for _ in range(nrows):
            coeffs = [rng.randint(-3, 3) for _ in basis]
            rows.append(
                [sum(c * b[k] for c, b in zip(coeffs, basis)) for k in range(ncols)]
            )
        rows += [list(rng.choice(rows)) for _ in range(rng.randint(0, 3))]
        rows.insert(rng.randint(0, len(rows)), [0] * ncols)
        for k in rng.sample(range(ncols), rng.randint(0, ncols // 4)):
            for row in rows:
                row[k] = 0
        rng.shuffle(rows)
        yield rows


# mod 2**31 - 1 rows are reduced again after (2**64 - p) // (p - 1)**2 = 4
# updates, so the refresh runs on every matrix of rank above 4
@pytest.mark.parametrize("p", [67_108_859, 2**31 - 1, 3])
def test_rref_mod_matches_the_list_oracle_on_random_matrices(p):
    for rows in _test_matrices(random.Random(p)):
        ncols = len(rows[0])
        assert algebra._rref_mod(rows, ncols, p) == rref_mod_lists(rows, ncols, p)


def test_rref_mod_needs_a_prime_below_2_to_the_32():
    with pytest.raises(ValueError):
        algebra._rref_mod([[1]], 1, 2**32 + 15)


def test_semisimple_quotient_at_degree_4():
    # rank 209 of a 625 x 625 Gram matrix: radical 416 = 625 - 209
    s, e = zoo.build("PT4"), zoo.semilattice_for("E", "PT4")
    assert len(eh.reg_e(s, e)) == 209
    assert algebra.check_semisimple_quotient(s, e)


def test_semisimple_quotient_needs_invertible_endomorphisms():
    assert algebra.check_semisimple_quotient(
        zoo.build("PT2"), zoo.semilattice_for("E", "PT2")
    )
    with pytest.raises(StateError):
        algebra.check_semisimple_quotient(
            zoo.build("RR2"), zoo.semilattice_for("F", "RR2")
        )


def test_matrix_json_format():
    # the flat-pair encoding of the stein output, which the CLI writes
    # straight from the dense rows (tests/test_cli.py compares the two)
    assert matrix_to_json([[1, 0], [Fraction(1, 2), -1]]) == [
        [1, 1],
        [0, 1],
        [1, 2],
        [-1, 1],
    ]
