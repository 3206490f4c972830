"""Suite driver behavior: section selection, degree capping, formatting."""

import dataclasses

import pytest

from diagmon import diagrams as dg
from diagmon import verify, zoo
from diagmon.errors import ValidationError


def test_unknown_suite_rejected():
    with pytest.raises(ValidationError):
        verify.run_suite("7")


@pytest.mark.parametrize("nmax", [-1, True, 2.5, "2"])
def test_degree_cap_must_be_an_integer_at_least_0(nmax):
    # argparse makes --nmax an int, but a library caller may pass anything
    with pytest.raises(ValidationError, match="degree cap"):
        verify.run_suite("4", nmax)


def test_degree_cap_produces_vacuous_pass():
    results = verify.run_suite("all", nmax=0)
    # every line is a pass or a skip, and a skip is not a pass
    assert results and all(r.passed != r.skipped for r in results)


@pytest.mark.parametrize("nmax", range(5))
def test_every_check_prints_a_line_under_any_cap(nmax):
    # a check with no degree under the cap prints its skip line, and a
    # size line always names the sizes it compared
    for checks in verify.SUITES.values():
        for check in checks:
            results = check(nmax)
            assert results, check.__name__
            for r in results:
                assert "family sizes" not in r.name or r.detail, r.name


def test_capped_suite_skips_larger_degrees():
    results = verify.run_suite("3", nmax=2)
    names = " ".join(r.name for r in results)
    assert "degree-2" in names and "3 points" not in names


def test_result_lines_name_status_first():
    line = verify.CheckResult("something", True, "extra").line()
    assert line == "[PASS] something  (extra)"
    assert verify.CheckResult("bad", False).line() == "[FAIL] bad"


def _every_coarsening(a, side):
    """``zoo.block_identity_below`` with no non-transversal frozen."""
    blocks = a.blocks()
    return [
        dg.from_blocks(
            [
                [x for i, bl in enumerate(blocks) if m[i] == c for x in bl]
                for c in set(m)
            ],
            a.n,
        )
        for m in zoo.equivalences(len(blocks))
    ]


def test_order_characterizations_fail_on_broken_generators(monkeypatch):
    [result] = verify.check_order_characterizations()
    assert result.passed
    with monkeypatch.context() as m:
        m.setattr(zoo, "block_identity_below", _every_coarsening)
        [result] = verify.check_order_characterizations()
        assert not result.passed
    # split off subsets of the first n - 1 upper points only
    original = zoo.partial_identity_below
    monkeypatch.setattr(
        zoo, "partial_identity_below",
        lambda a: original(a)[: 1 << (a.n - 1)],
    )
    [result] = verify.check_order_characterizations()
    assert not result.passed


def test_rr4_eggbox_line_checks_the_chain(monkeypatch):
    # two of RR4's D-classes made incomparable: the egg-box still draws
    # five clusters, but they no longer form a chain
    name = "degree-4 right-restriction egg-box has 5 chained clusters"
    rr4, original = zoo.build("RR4"), verify.green

    def green(s):
        gs = original(s)
        if s is not rr4:
            return gs
        height = {len(b): d for d, b in enumerate(gs.below)}
        below = list(gs.below)
        below[height[3]] = below[height[3]] - {height[2]}
        return dataclasses.replace(gs, below=below)

    [line] = [r for r in verify.check_rank_chain_structure() if r.name == name]
    assert line.passed
    monkeypatch.setattr(verify, "green", green)
    [line] = [r for r in verify.check_rank_chain_structure() if r.name == name]
    assert not line.passed
