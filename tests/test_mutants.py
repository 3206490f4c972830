"""Mutants of the engine that ``verify all`` must catch.

Each row of ``MUTANTS`` names a fault, patched in with ``monkeypatch``, the
exact FAIL lines it must cause and the exit code.  Every other line still
prints, nothing goes to stderr, and the summary counts the failures.
"""

import pytest

from diagmon import cli
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
