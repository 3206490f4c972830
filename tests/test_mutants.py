"""Mutants of the engine that ``verify all`` must catch.

Each row of ``MUTANTS`` names a fault, patched in with ``monkeypatch``, the
exact FAIL lines it must cause and the exit code.  Every other line still
prints, nothing goes to stderr, and the summary counts the failures.  Every
line of ``verify 2`` must be one that some row fails.
"""

import pytest

from diagmon import algebra, cli
from diagmon import ehresmann as eh
from diagmon.monoid import FiniteMonoid


def drop_last_regular(monkeypatch):
    # the engine's own closure certificate trips inside some checks: a
    # ValidationError there is one FAIL line, not a usage error
    original = eh.reg_e
    monkeypatch.setattr(eh, "reg_e", lambda s, e: original(s, e)[:-1])


def every_set_closed(monkeypatch):
    # the engine's closure verdict, which the P3 escape line must read
    monkeypatch.setattr(FiniteMonoid, "escape", lambda m, indices: None)


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


def never_multiplicative(monkeypatch):
    monkeypatch.setattr(algebra, "is_multiplicative", lambda cat, phi: False)


def never_ei(monkeypatch):
    monkeypatch.setattr(algebra, "is_ei", lambda cat: (False, 0))


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
NOT_EI = (
    "semisimple-quotient check needs every endomorphism to be invertible; "
    "element 0 is a non-invertible endomorphism"
)


def semisimple_lines(detail=None):
    """The three semisimple lines, with a passing line's detail unless
    ``detail`` is given."""
    return {
        f"{name}: {SEMISIMPLE.format(dim, detail or passing)}"
        for name, dim, passing in (
            ("PT2", 7, "dim=9 radical=2"),
            ("PT3", 34, "dim=64 radical=30"),
            ("Pfd2", 3, "dim=5 radical=2"),
        )
    }


MUTANTS = {
    "reg_e-drops-its-last": (
        drop_last_regular,
        {
            "check_semisimple_dimensions  (not closed: the product of 54 "
            "and generator 0 escapes the set)",
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
        semisimple_lines(),
        1,
    ),
    "trace_left-one-more-at-0": (
        first_trace_one_more,
        semisimple_lines(),
        1,
    ),
    "is_multiplicative-false": (
        never_multiplicative,
        {f"{name}, {side} order: {TRANSFORM}" for name, side in (
            ("PT2", "left"), ("PT3", "left"), ("Pfd2", "right"),
            ("Pfd3", "right"), ("I2", "left"), ("I2", "right"),
        )},
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
    failed = {x[len("[FAIL] "):] for x in lines if x.startswith("[FAIL] ")}
    assert failed == failures
    total = len(clean) - 1
    assert lines[-1] == f"{total - len(failures)}/{total} checks passed"


def test_every_section_2_line_has_a_mutant(capsys):
    # reads the declared FAIL lines, which test_mutant_fails_its_lines
    # checks, so no mutant runs here
    declared = {
        line.partition("  (")[0]
        for _, failures, _ in MUTANTS.values()
        for line in failures
    }
    assert cli.main(["verify", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()[:-1]
    assert len(lines) == 9
    for line in lines:
        assert line.startswith("[PASS] ")
        assert line[len("[PASS] "):].partition("  (")[0] in declared, line
