"""Mutants of the engine that ``verify all`` must catch.

Each row of ``MUTANTS`` names a fault, patched in with ``monkeypatch``, the
exact FAIL lines it must cause, a line that fails more than once listed as
often, and the exit code.  Every other line still
prints, nothing goes to stderr, and the summary counts the failures.  Every
line of ``verify 2``, ``3``, ``4`` and ``5`` must be one that some row
fails.
"""

import functools
from collections import Counter

import pytest

from diagmon import algebra, cli, dotout, verify, zoo
from diagmon import diagrams as dg
from diagmon import ehresmann as eh
from diagmon.errors import ValidationError
from diagmon.monoid import FiniteMonoid


def drop_last_regular(monkeypatch):
    # the engine's own closure certificate trips inside some checks: a
    # ValidationError there is one FAIL line, not a usage error
    original = eh.reg_e
    monkeypatch.setattr(eh, "reg_e", lambda s, e: original(s, e)[:-1])


def every_set_closed(monkeypatch):
    # the engine's closure verdict, which the P3 escape line must read
    monkeypatch.setattr(FiniteMonoid, "closed", lambda m, indices: True)


def radical_one_more(monkeypatch):
    original = algebra.radical_dim
    monkeypatch.setattr(algebra, "radical_dim", lambda a: original(a) + 1)


def first_trace_one_more(monkeypatch):
    # reaches the radical only through the Gram matrix
    original = algebra.RationalAlgebra.trace_left
    monkeypatch.setattr(
        algebra.RationalAlgebra, "trace_left",
        lambda a, k: original(a, k) + (k == 0),
    )


def p3_merge_misplaced(monkeypatch):
    # the first of P3's products by the block identity of {2, 3} that join
    # two upper blocks, which the position tables leave to a per-diagram
    # lookup, lands one position too far; zoo.build gets a fresh cache, so
    # P3 and every family cut from it are built again
    monkeypatch.setattr(
        zoo, "build", functools.lru_cache(maxsize=None)(zoo.build.__wrapped__)
    )
    position, p3_calls = zoo._position, []

    def misplaced(ranking, code):
        if len(code) == 6:
            p3_calls.append(code)
        return position(ranking, code) + (p3_calls == [code])

    monkeypatch.setattr(zoo, "_position", misplaced)


def test_a_corrupted_p3_refuses_its_block_identities(monkeypatch):
    # with one of P3's merge products misplaced, the closure walk finds a
    # product of the block identities outside them, and no other verdict
    # may overrule it
    p3_merge_misplaced(monkeypatch)
    p3 = zoo.build("P3")
    members = [p3.index[dg.id_equiv(q)] for q in zoo.equivalences(3)]
    assert not p3.closed(members)
    with pytest.raises(ValidationError, match="^not closed"):
        eh.Semilattice.create(p3, members)


def p3_picked_action_moved(monkeypatch):
    # the first action of a generator picked in a subset of P3 with more
    # than one element, y*c for each y of the subset, has its first entry
    # land on the next element of the subset; zoo.build gets a fresh cache,
    # so the P3 cuts are walked again
    monkeypatch.setattr(
        zoo, "build", functools.lru_cache(maxsize=None)(zoo.build.__wrapped__)
    )
    lines, picked = FiniteMonoid._lines, []

    def moved_lines(m, xs, column=False, among=None):
        for x, line in lines(m, xs, column, among):
            if among is not None and len(among) > 1 and m.size == zoo.bell(6):
                picked.append(x)
                if picked == [x]:
                    at = among.index(line[0]) + 1
                    line = (among[at % len(among)], *line[1:])
            yield x, line

    monkeypatch.setattr(FiniteMonoid, "_lines", moved_lines)


def family_with(fam, **fields):
    """A new ``zoo.Family`` record: that of ``fam`` with ``fields`` changed."""
    record = zoo.FAMILIES[fam]
    return zoo.Family(**{
        **{name: getattr(record, name) for name in zoo.Family.__slots__},
        **fields,
    })


def d0_mirrored(monkeypatch):
    # D0_n becomes its mirror, no transversal and a universal cokernel:
    # also Bell(n) diagrams, so RR_n keeps |Pfd_n| + |D0_n| elements but
    # is no longer their union; the cuts and builds get fresh caches
    for name in ("build", "family_cuts"):
        cached = getattr(zoo, name).__wrapped__
        monkeypatch.setattr(zoo, name, functools.lru_cache(maxsize=None)(cached))
    monkeypatch.setitem(zoo.FAMILIES, "D0", family_with(
        "D0", member=lambda f: f.none and f.couniversal
    ))


def constant_relation_domain(monkeypatch):
    # every relation reports the same domain, so the domains no longer
    # give the R~ classes of the binary relations
    original = verify.rel_params
    monkeypatch.setattr(verify, "rel_params", lambda a: original(a)._replace(
        dom=frozenset()
    ))


def top_size_one_more(monkeypatch):
    # the T, PT and BX records each count one element too many at the top
    # degree their size line checks
    for fam, top in (("T", 4), ("PT", 4), ("BX", 3)):
        size = zoo.FAMILIES[fam].size
        monkeypatch.setitem(zoo.FAMILIES, fam, family_with(
            fam, size=lambda n, size=size, top=top: size(n) + (n == top),
        ))


def never_multiplicative(monkeypatch):
    monkeypatch.setattr(algebra, "is_multiplicative", lambda s, e, phi: False)


def never_ei(monkeypatch):
    monkeypatch.setattr(algebra, "is_ei", lambda s, e: (False, 0))


def embedding_never_holds(monkeypatch):
    monkeypatch.setattr(verify, "check_embedding", lambda f, s, t: False)


def tower_map_entries_swapped(monkeypatch):
    # the first two entries of the map P_n -> RP_n trade places: still a
    # bijection onto its image, but no longer a homomorphism
    maps = zoo.tower_maps

    def swapped(n):
        first, second = maps(n)
        first[0], first[1] = first[1], first[0]
        return first, second

    monkeypatch.setattr(zoo, "tower_maps", swapped)


def brauer_size_one_more_at_3(monkeypatch):
    size = zoo.FAMILIES["B"].size
    monkeypatch.setitem(zoo.FAMILIES, "B", family_with(
        "B", size=lambda n: size(n) + (n == 3)
    ))


def l2_always_holds(monkeypatch):
    # the left congruence sweep passes whatever the classes
    sweep = eh._sweep
    monkeypatch.setattr(eh, "_sweep", lambda s, classes, column: (
        sweep(s, classes, column) if column else (True, None)
    ))


def first_two_tilde_classes_merged(monkeypatch):
    # R~ and L~ put the first two classes of every labelling into one
    classes = eh._classes_by_key
    monkeypatch.setattr(eh, "_classes_by_key", lambda keys: [
        max(c - 1, 0) for c in classes(keys)
    ])


def identity_sets_drop_first_member(monkeypatch):
    # E_L(x) and E_R(x) leave out the member of E of least index
    sets = eh.identity_sets
    monkeypatch.setattr(eh, "identity_sets", lambda s, e, side: [
        got - {e.members[0]} for got in sets(s, e, side)
    ])


def degree_6_product_is_its_first_factor(monkeypatch):
    multiply = dg.multiply
    monkeypatch.setattr(dg, "multiply", lambda a, b: (
        a if a.n == 6 else multiply(a, b)
    ))


def below_set_drops_a_member(monkeypatch):
    # the last below-set with more than one member loses its least other
    # member; the transform reads the order through algebra's own name
    order = eh.natural_order

    def dropped(s, e, side):
        below = order(s, e, side)
        y = max(y for y, b in enumerate(below) if len(b) > 1)
        below[y] = below[y] - {min(below[y] - {y})}
        return below

    monkeypatch.setattr(eh, "natural_order", dropped)
    monkeypatch.setattr(algebra, "natural_order", dropped)


def restriction_parts_drop_their_last(monkeypatch):
    parts = eh.rest_subsemigroups
    monkeypatch.setattr(eh, "rest_subsemigroups", lambda s, e: tuple(
        part[:-1] for part in parts(s, e)
    ))


def right_zeros_drop_one(monkeypatch):
    zeros = verify.right_zeros
    monkeypatch.setattr(verify, "right_zeros", lambda m: frozenset(
        sorted(zeros(m))[1:]
    ))


def eggbox_drops_its_first_cluster(monkeypatch):
    emit = dotout.emit_eggbox

    def dropped(m, shade=None, title="eggbox"):
        lines = emit(m, shade, title).split("\n")
        start = next(i for i, line in enumerate(lines)
                     if line.startswith("  subgraph"))
        return "\n".join(lines[:start] + lines[lines.index("  }", start) + 1:])

    monkeypatch.setattr(dotout, "emit_eggbox", dropped)


def partition_sizes_one_more_at_3(monkeypatch):
    # the P, I and J records each count one element too many at n = 3
    for fam in ("P", "I", "J"):
        size = zoo.FAMILIES[fam].size
        monkeypatch.setitem(zoo.FAMILIES, fam, family_with(
            fam, size=lambda n, size=size: size(n) + (n == 3)
        ))


RELATIONS = (
    "relations: largest left-restriction part is the partial functions, "
    "two-sided and regular parts are the partial bijections"
)
BRAUER = (
    "regular part is the partial bijections, identity classes have "
    "double-factorial sizes"
)
ROOK = "is its full-domain full-codomain submonoid"
REGULAR = (
    "are the expected inverse submonoids and the block-identity classes "
    "close up with the right sizes"
)
TRANSFORM = (
    "basis transform is multiplicative, unitriangular, inverted by its "
    "order's Mobius matrix"
)
SEMISIMPLE = (
    "semigroup algebra modulo its radical has dimension {}, and the "
    "regular part's algebra is semisimple  ({})"
)
BINARY = (
    "all binary relations on {} points: Ehresmann for partial identities, "
    "classes given by domain and codomain"
)
NOT_EHRESMANN = "category needs the Ehresmann axioms; {} fail"
ALL_FOUR, ONE_SIDED = "['L1', 'L2', 'R1', 'R2']", "['L1', 'R1']"
# the (monoid, side) of each transform line
TRANSFORMS = (("PT2", "left"), ("PT3", "left"), ("Pfd2", "right"),
              ("Pfd3", "right"), ("I2", "left"), ("I2", "right"))
RESTRICTION = (
    "match their block descriptions, with the two-block diagram as zero"
)
RANK_CHAIN = (
    "monoid at degree {}: regular, rank-chain classes, group cells of size "
    "rank!, bottom right zeros"
)
NOT_EI = (
    "semisimple-quotient check needs every endomorphism to be invertible; "
    "element 0 is a non-invertible endomorphism"
)


def semisimple_lines(detail=None, radicals=(2, 30, 2)):
    """The three semisimple lines, each with its detail: ``detail`` where
    given, else the size and the radical computed, passing or not."""
    return {
        f"{name}: {SEMISIMPLE.format(dim, detail or f'dim={size} radical={r}')}"
        for (name, dim, size), r in zip(
            (("PT2", 7, 9), ("PT3", 34, 64), ("Pfd2", 3, 5)), radicals
        )
    }


MUTANTS = {
    "reg_e-drops-its-last": (
        drop_last_regular,
        {
            "check_semisimple_dimensions  (not closed: the product of 54 "
            "and generator 0 escapes the set)",
            # the line's verdict reads the regular part it prints
            f"PT2: {SEMISIMPLE.format(6, 'dim=9 radical=2')}",
            f"Pfd2: {SEMISIMPLE.format(2, 'dim=5 radical=2')}",
            *(f"degree-{n} {RELATIONS}" for n in (1, 2, 3)),
            *(f"regular parts of P_{n} {REGULAR}" for n in (2, 3)),
            *(f"partial Brauer monoid at degree {n}: {BRAUER}"
              for n in (1, 2, 3)),
            *(f"regular part of the rook monoid at degree {n} {ROOK}"
              for n in (1, 2, 3)),
        },
        1,
    ),
    "escape-finds-every-set-closed": (
        every_set_closed,
        {
            "the partial-identity class of the identity of P_3 is not "
            "closed (fixed escaping product)",
        },
        1,
    ),
    "radical_dim-one-more": (
        radical_one_more,
        semisimple_lines(radicals=(3, 31, 3)),
        1,
    ),
    "trace_left-one-more-at-0": (
        first_trace_one_more,
        semisimple_lines(radicals=(2, 27, 2)),
        1,
    ),
    "p3-merge-entry-misplaced": (
        p3_merge_misplaced,
        [
            # the walk finds a product of F's members outside F, so every
            # check that reads the F of P3, or of its cut Pfd3, fails as
            # one line that names it
            "check_transform_isomorphism  (semilattice F of Pfd3: not "
            "closed: a product escapes the set)",
            *(f"{check}  (semilattice F of P3: not closed: a product "
              "escapes the set)"
              for check in ("check_block_identity_axioms",
                            "check_identity_set_formulas",
                            "check_order_characterizations",
                            "check_regular_subsemigroups",
                            "check_restriction_subsemigroups")),
            "tower embeddings at degree 3 are injective homomorphisms",
            # the P3 cuts read the misplaced entry in their actions
            "full-domain monoid at degree 3: regular, rank-chain classes, "
            "group cells of size rank!, bottom right zeros",
            "check_partition_sizes  (not closed: the product of 16 and "
            "generator 2 escapes the set)",
            *["check_rook_suite  (not closed: the product of 16 and "
              "generator 1 escapes the set)"] * 4,
        ],
        1,
    ),
    "p3-picked-action-entry-moved": (
        p3_picked_action_moved,
        {"check_transform_isomorphism  (semilattice F of Pfd3: elements 0,10 "
         "do not commute)"},
        1,
    ),
    "d0-mirrored": (
        d0_mirrored,
        {"right-restriction monoid splits as full-domain part plus the "
         "rank-0 floor"},
        1,
    ),
    "rel_params-constant-domain": (
        constant_relation_domain,
        {BINARY.format(n) for n in (1, 2, 3)},
        1,
    ),
    "size-one-more-at-the-top": (
        top_size_one_more,
        {f"{fam} family sizes match the counting formula  ({sizes})"
         for fam, sizes in (("T", "T_1=1 T_2=4 T_3=27 T_4=256"),
                            ("PT", "PT_1=2 PT_2=9 PT_3=64 PT_4=625"),
                            ("BX", "BX_1=2 BX_2=16 BX_3=512"))},
        1,
    ),
    "is_multiplicative-false": (
        never_multiplicative,
        {f"{name}, {side} order: {TRANSFORM}" for name, side in TRANSFORMS},
        1,
    ),
    "check_embedding-false": (
        embedding_never_holds,
        {f"tower embeddings at degree {n} are injective homomorphisms"
         for n in (1, 2, 3)},
        1,
    ),
    "tower-map-entries-swapped": (
        tower_map_entries_swapped,
        {f"tower embeddings at degree {n} are injective homomorphisms"
         for n in (1, 2, 3)},
        1,
    ),
    "B-size-one-more-at-3": (
        brauer_size_one_more_at_3,
        {
            # the identity class of the full partial identity at degree 3
            f"partial Brauer monoid at degree 3: {BRAUER}",
            "Brauer family sizes match the double factorials  "
            "(B_1=1 B_2=3 B_3=15 B_4=105)",
        },
        1,
    ),
    "L2-always-holds": (
        l2_always_holds,
        {
            "P_2 fails L2 and R2 for the partial identities, with the fixed "
            "witness triple",
            "partial Brauer monoid at degree 2 fails the left-congruence "
            "axiom, with the same degree-2 witnesses inside it",
        },
        1,
    ),
    "tilde-classes-first-two-merged": (
        first_two_tilde_classes_merged,
        [
            # a merged class holds two members of E, so L1 and R1 fail
            *(f"{name}, {side} order: {TRANSFORM}  (the transform needs the "
              f"Ehresmann axioms and {'L3' if side == 'left' else 'R3'})"
              for name, side in TRANSFORMS),
            *(f"{name}: {SEMISIMPLE.format(dim, NOT_EHRESMANN.format(fail))}"
              for name, dim, fail in (("PT2", 7, ALL_FOUR),
                                      ("PT3", 34, ALL_FOUR),
                                      ("Pfd2", 3, ONE_SIDED))),
            *(BINARY.format(n) for n in (1, 2, 3)),
            *(f"check_relation_suite  ({NOT_EHRESMANN.format(fail)})"
              for fail in (ONE_SIDED, ALL_FOUR, ALL_FOUR)),
            *(f"P_{n} satisfies L1, L2, R1, R2 for the block identities  "
              f"(sweep={sweep})"
              for n, sweep in ((2, "full"), (3, "full"), (4, "generators"))),
            "identity sets and induced equivalences in P_3 match their "
            "closed forms",
            *(f"regular parts of P_{n} {REGULAR}" for n in (2, 3)),
            *(f"partial Brauer monoid at degree {n}: {BRAUER}"
              for n in (1, 2, 3)),
            *(f"rook monoid at degree {n} is Ehresmann for the enlarged "
              "block identities" for n in (1, 2)),
        ],
        1,
    ),
    "identity_sets-drop-first-member": (
        identity_sets_drop_first_member,
        {
            "identity sets and induced equivalences in P_3 match their "
            "closed forms",
            "lifted block identities fail left-congruence in the degree-2 "
            "rook monoid (fixed witness triple)",
        },
        1,
    ),
    "degree-6-product-is-its-first-factor": (
        degree_6_product_is_its_first_factor,
        {"degree-6 product and parameters of the fixed pair"},
        1,
    ),
    "below-set-drops-a-member": (
        below_set_drops_a_member,
        {
            "both natural orders on P_3 match their block descriptions",
            *(f"{name}, {side} order: {TRANSFORM}" + (
                "  (Mobius matrix failed the inversion check)"
                if name in ("PT2", "Pfd3") else ""
              ) for name, side in TRANSFORMS),
        },
        1,
    ),
    "restriction-parts-drop-their-last": (
        restriction_parts_drop_their_last,
        {
            *(f"largest restriction subsemigroups of P_{n} {RESTRICTION}"
              for n in (2, 3)),
            *(f"degree-{n} {RELATIONS}" for n in (1, 2, 3)),
        },
        1,
    ),
    "right_zeros-drop-one": (
        right_zeros_drop_one,
        {f"{kind} {RANK_CHAIN.format(n)}"
         for kind in ("full-domain", "right-restriction") for n in (2, 3, 4)},
        1,
    ),
    "eggbox-drops-its-first-cluster": (
        eggbox_drops_its_first_cluster,
        {"degree-4 right-restriction egg-box has 5 chained clusters"},
        1,
    ),
    "P-I-J-sizes-one-more-at-3": (
        partition_sizes_one_more_at_3,
        {
            # the regular parts of P_3 read I's size, its restriction parts J's
            f"regular parts of P_3 {REGULAR}",
            f"largest restriction subsemigroups of P_3 {RESTRICTION}",
            *(f"{fam} family sizes match the counting formula  ({sizes})"
              for fam, sizes in (
                  ("P", "P_0=1 P_1=2 P_2=15 P_3=203 P_4=4140"),
                  ("I", "I_0=1 I_1=2 I_2=7 I_3=34 I_4=209"),
                  ("J", "J_0=1 J_1=1 J_2=3 J_3=25 J_4=339"))),
        },
        1,
    ),
    "is_ei-false": (
        never_ei,
        {
            *semisimple_lines(NOT_EI),
            *(f"endomorphisms in the partial-function category at degree "
              f"{n} are all invertible" for n in (1, 2, 3)),
        },
        1,
    ),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_fails_its_lines(monkeypatch, capsys, mutant):
    patch, failures, code = MUTANTS[mutant]
    assert cli.main(["verify", "all"]) == 0
    clean = capsys.readouterr().out.splitlines()
    patch(monkeypatch)
    assert cli.main(["verify", "all"]) == code
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == len(clean)
    failed = Counter(x[len("[FAIL] "):] for x in lines
                     if x.startswith("[FAIL] "))
    assert failed == Counter(failures)
    total = len(clean) - 1
    assert lines[-1] == f"{total - len(failures)}/{total} checks passed"


@pytest.mark.parametrize(
    "section, count", [("2", 9), ("3", 12), ("4", 23), ("5", 14)]
)
def test_every_line_has_a_mutant(capsys, section, count):
    # reads the declared FAIL lines, which test_mutant_fails_its_lines
    # checks, so no mutant runs here
    declared = {
        line.partition("  (")[0]
        for _, failures, _ in MUTANTS.values()
        for line in failures
    }
    assert cli.main(["verify", section]) == 0
    lines = capsys.readouterr().out.splitlines()[:-1]
    assert len(lines) == count
    for line in lines:
        assert line.startswith("[PASS] ")
        assert line[len("[PASS] "):].partition("  (")[0] in declared, line
