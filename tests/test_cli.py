"""Command-line behavior: outputs, determinism, exit codes."""

import contextlib
import functools
import json
from array import array
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagmon import algebra, cli, verify, zoo
from diagmon import ehresmann as eh
from diagmon import relations as rel
from diagmon.diagrams import Partition
from diagmon.errors import StateError, ValidationError
from diagmon.monoid import FiniteMonoid

from oracles import family_member, matrix_to_json, top_degree


def run(args, tmp_path, name="out"):
    out = tmp_path / name
    code = cli.main(args + ["--out", str(out)])
    return code, out.read_text() if out.exists() else None


def test_build_dump_format(tmp_path):
    code, text = run(["build", "P2"], tmp_path)
    assert code == 0
    data = json.loads(text)
    assert data["size"] == 15
    assert len(data["mul"]) == 225
    assert data["identity"] is not None
    assert len(data["elements"]) == 15
    assert all(set(e) == {"n", "blocks"} for e in data["elements"])


def test_build_is_deterministic(tmp_path):
    _, first = run(["build", "RR2"], tmp_path, "a")
    _, second = run(["build", "RR2"], tmp_path, "b")
    assert first == second
    assert json.loads(first)["size"] == 7


def test_analyze_block_identities(tmp_path):
    code, text = run(["analyze", "P3", "F"], tmp_path)
    assert code == 0
    data = json.loads(text)
    assert all(data["axioms"][a] for a in ("L1", "L2", "R1", "R2"))
    assert data["rest_sizes"]["two_sided"] == 26
    assert data["regular_family"] == "J3"


def test_analyze_partial_identities_reports_failure(tmp_path):
    code, text = run(["analyze", "P2", "E"], tmp_path)
    assert code == 0  # analysis succeeded; failure is data, not an error
    data = json.loads(text)
    assert data["axioms"]["L2"] is False
    assert "L2" in data["witnesses"]
    assert data["regular_family"] == "I2"


def test_analyze_partial_brauer(tmp_path):
    code, text = run(["analyze", "PB2", "E"], tmp_path)
    data = json.loads(text)
    assert data["axioms"]["L2"] is False


def test_eggbox_and_shade(tmp_path):
    code, text = run(["eggbox", "P0"], tmp_path)
    assert code == 0 and text.count("subgraph") == 1
    shade_file = tmp_path / "shade.json"
    j2 = [a.to_json() for a in zoo.build("J2").elements]
    shade_file.write_text(json.dumps(j2))
    code, text = run(
        ["eggbox", "P2", "--shade", str(shade_file)], tmp_path, "shaded"
    )
    assert code == 0
    assert "#ff8c00" in text or "#ffa500" in text


@pytest.mark.parametrize(
    "family, items",
    [
        # a diagram of P3 outside P2, written out so that collecting this
        # module builds no monoid
        ("P2", [{"n": 3, "blocks": [[1, 2, 3, -1, -2, -3]]}]),
        ("P2", [{"n": 2}]),
        ("P2", [[1]]),
        # a degree the decoder would allocate for: rejected before decoding
        ("P2", [{"n": 10**18, "blocks": [[1, -1]]}]),
        ("BX2", [{"n": 10**18, "pairs": [[1, 1]]}]),
        # JSON true is not the point 1
        ("P2", [{"n": 2, "blocks": [[True, -1], [2, -2]]}]),
        ("BX2", [{"n": 2, "pairs": [[True, 1]]}]),
    ],
    ids=[f"items{i}" for i in range(7)],
)
def test_eggbox_shade_rejects_bad_items(tmp_path, capsys, family, items):
    shade_file = tmp_path / "shade.json"
    shade_file.write_text(json.dumps(items))
    code = cli.main(["eggbox", family, "--shade", str(shade_file)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_category_command(tmp_path):
    code, text = run(["category", "PT2", "E"], tmp_path)
    assert code == 0
    data = json.loads(text)
    assert data["objects"] == 4
    assert data["ei"] is True
    assert sum(data["hom_sizes"].values()) == 9


def test_stein_command(tmp_path):
    code, text = run(["stein", "Pfd2", "F", "--side", "right"], tmp_path)
    assert code == 0
    data = json.loads(text)
    assert data["dimension"] == 5
    assert data["multiplicative"] is True
    assert len(data["zeta"]) == 25
    assert all(den == 1 for _, den in data["mobius"])


NAMES_UP_TO_2 = [
    f"{f}{n}" for f in zoo.FAMILIES for n in range(min(top_degree(f), 2) + 1)
]


def _stein_error(name, kind, side):
    """The one error line ``stein`` must write, or None when the transform
    exists: check_axioms reports L1, L2, R1 and R2, and L3 for 'left' or
    R3 for 'right'."""
    try:
        e = zoo.semilattice_for(kind, name)
    except ValidationError as err:
        return f"error: {err}\n"
    axioms = eh.check_axioms(e.parent, e).axioms
    needed = ("L3", "R3")[eh.SIDES.index(side)]
    if all(axioms[a] for a in ("L1", "L2", "R1", "R2", needed)):
        return None
    return f"error: the transform needs the Ehresmann axioms and {needed}\n"


def test_stein_keeps_its_exit_code_contract_on_every_small_input(capsys):
    # exit 0 with a multiplicative transform exactly when it exists, and
    # otherwise exit 2 with one error line and nothing on stdout
    runs = [(name, kind, side) for name in NAMES_UP_TO_2
            for kind in zoo.SEMILATTICE_KINDS for side in eh.SIDES]
    assert len(runs) == 306
    for name, kind, side in runs:
        code = cli.main(["stein", name, kind, "--side", side])
        out, err = capsys.readouterr()
        want = _stein_error(name, kind, side)
        if want is None:
            assert (code, err) == (0, ""), (name, kind, side)
            assert json.loads(out)["multiplicative"] is True
        else:
            assert (code, out, err) == (2, "", want), (name, kind, side)


def test_stein_checks_the_transform_once(monkeypatch, capsys):
    # verify_stein checks the preconditions; zeta and Mobius matrices are
    # both made from the one natural order the command reads after it
    calls = Counter()
    for fn in ("verify_stein", "natural_order"):
        original = getattr(algebra, fn)

        def counted(*args, fn=fn, original=original):
            calls[fn] += 1
            return original(*args)

        monkeypatch.setattr(algebra, fn, counted)
    assert cli.main(["stein", "PT3", "E", "--side", "left"]) == 0
    assert json.loads(capsys.readouterr().out)["multiplicative"] is True
    assert calls == {"verify_stein": 1, "natural_order": 2}


def test_hom_sets_are_built_once_and_never_by_the_transform(
    monkeypatch, capsys
):
    # the transform reads x+ and x* off the axiom report; the category
    # command builds the hom-sets once, and every later call returns the
    # dict kept on E
    built = []
    original = algebra.build_category
    monkeypatch.setattr(
        algebra, "build_category",
        lambda s, e: built.append(original(s, e)) or built[-1],
    )
    assert cli.main(["stein", "PT3", "E", "--side", "left"]) == 0
    assert built == []
    assert cli.main(["category", "PT3", "E"]) == 0
    capsys.readouterr()
    assert built and all(hom is built[0] for hom in built)


def test_verify_command(tmp_path):
    code, text = run(["verify", "2", "--nmax", "2"], tmp_path)
    assert code == 0
    assert "FAIL" not in text
    assert text.strip().endswith("checks passed")


@pytest.mark.parametrize("nmax", range(5))
def test_skipped_checks_are_not_counted(capsys, nmax):
    # a check with no degree under the cap prints "[SKIP] <name>", not a
    # pass, and the summary counts only the lines that checked something
    assert cli.main(["verify", "all", "--nmax", str(nmax)]) == 0
    *lines, summary = capsys.readouterr().out.splitlines()
    skipped = {x[7:] for x in lines if x.startswith("[SKIP] ")}
    checked = [x for x in lines if not x.startswith("[SKIP] ")]
    assert all(x.startswith("[PASS] ") for x in checked)
    assert not any("skipped" in x for x in checked)
    assert skipped <= {c.__name__ for cs in verify.SUITES.values() for c in cs}
    assert summary == f"{len(checked)}/{len(checked)} checks passed"
    assert len(checked) == (4, 16, 39, 54, 58)[nmax]


def test_broken_precondition_in_verify_is_a_failed_check(monkeypatch, capsys):
    # PT2's order loses reflexivity, so its transform has no unitriangular
    # zeta matrix; the other checks still run and print
    original = algebra.natural_order
    pt2 = zoo.build("PT2")

    def natural_order(s, e, side):
        below = original(s, e, side)
        return [b - {y} for y, b in enumerate(below)] if s is pt2 else below

    monkeypatch.setattr(algebra, "natural_order", natural_order)
    assert cli.main(["verify", "2", "--nmax", "2"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert err == ""
    assert [x for x in lines if x.startswith("[FAIL]")] == [
        "[FAIL] PT2, left order: basis transform is multiplicative, "
        "unitriangular, inverted by its order's Mobius matrix  "
        "(zeta matrix is not unitriangular under the order)"
    ]
    assert lines[-1] == "5/6 checks passed"


def test_non_ei_category_in_verify_is_a_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(algebra, "is_ei", lambda s, e: (False, 0))
    assert cli.main(["verify", "2", "--nmax", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [x for x in lines if x.startswith("[FAIL]")]
    assert len(failed) == 2 and all("non-invertible" in x for x in failed)
    assert lines[-1] == "4/6 checks passed"


def test_exit_codes(tmp_path, capsys):
    assert cli.main(["build", "Zzz9"]) == 2  # unknown family
    assert cli.main(["build", "P9"]) == 3  # over the element budget
    assert cli.main(["build", "P4"]) == 3  # over the table cap
    assert cli.main(["analyze", "P2", "Q"]) == 2  # bad semilattice kind
    assert cli.main(["frobnicate"]) == 2  # unknown subcommand
    capsys.readouterr()
    assert cli.main(["verify", "all", "--nmax", "-1"]) == 2  # negative cap
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert cli.main(["category", "P4", "F"]) == 0  # sweeps P4's generators
    capsys.readouterr()
    assert cli.main(["category", "P4", "E"]) == 2  # not Ehresmann
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "L2" in err and "R2" in err


def test_stdout_when_no_out_flag(capsys):
    assert cli.main(["eggbox", "P0"]) == 0
    assert "digraph" in capsys.readouterr().out


SHADE_FILES = {
    "non_array": b'{"n": 2}',
    "malformed_item": b"[[1]]",
    "non_utf8": b"\xff\xfe[]",
    "empty": b"[]",
    "long_int": b'[{"n": 1' + b"0" * 5000 + b', "blocks": []}]',
    "deep": b"[" * 100000 + b"]" * 100000,
}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["build", "Zzz9"], 2),  # unknown family names
        (["analyze", "Q3", "F"], 2),
        (["eggbox", "P-1"], 2),
        (["build", "P999999999999999999999"], 3),  # over the element budget
        (["analyze", "RJ4", "F"], 3),
        (["analyze", "P2", "Q"], 2),  # bad semilattice kinds
        (["category", "PT2", "F"], 2),
        (["eggbox", "P2", "--shade", "{non_array}"], 2),
        (["eggbox", "P2", "--shade", "{malformed_item}"], 2),
        (["eggbox", "P2", "--shade", "{non_utf8}"], 2),
        (["eggbox", "P2", "--shade", "{dir}"], 2),
        (["eggbox", "P1", "--shade", "{empty}"], 0),
        (["build", "P2", "--out", "{dir}/missing/out.json"], 2),
        (["eggbox", "P2", "--format", "dot"], 2),  # the removed flag
        (["stein", "Pfd2", "F", "--side", "right", "--format", "json"], 2),
        # too many digits for int(), and nesting too deep for the decoder
        (["analyze", "P" + "9" * 5000, "F"], 3),
        (["eggbox", "P2", "--shade", "{long_int}"], 2),
        (["eggbox", "P2", "--shade", "{deep}"], 2),
        (["eggbox", "P\u0662"], 2),  # a degree in Arabic-Indic digits
    ],
)
def test_cli_fuzz_exit_codes(tmp_path, capsys, argv, code):
    paths = {"dir": str(tmp_path)}
    for name, content in SHADE_FILES.items():
        (tmp_path / name).write_bytes(content)
        paths[name] = str(tmp_path / name)
    assert cli.main([arg.format(**paths) for arg in argv]) == code
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert sum("error:" in line for line in err.splitlines()) == (code != 0)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["analyze", "BX3", "F"], "F"),
        (["category", "PT2", "G"], "G"),
        (["stein", "BX2", "F", "--side", "left"], "F"),
    ],
)
def test_relation_kind_rejected_before_building(monkeypatch, capsys, argv, kind):
    def build(name):
        raise AssertionError(f"{name} was built")

    monkeypatch.setattr(zoo, "build", build)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: semilattice {kind} undefined for relations\n"


def _member_test(fam, deg, m):
    """Membership in a candidate of ``identify_by_counting``, of degree deg
    and cut from P_m when it is a diagram family."""
    if fam == "PT":
        return lambda a: isinstance(a, rel.BinaryRelation) and a.n == deg and (
            rel.is_partial_function(a))
    return lambda a: isinstance(a, Partition) and a.n == m and (
        family_member(fam, a))


@functools.lru_cache(maxsize=None)
def _universe_count(fam, deg, m):
    """The members of a candidate, counted one by one in its universe."""
    universe = (
        zoo.relation_universe(deg) if fam == "PT" else zoo.partition_universe(m)
    )
    return sum(map(_member_test(fam, deg, m), universe))


def identify_by_counting(s, indices):
    """``cli._identify`` by counting each candidate's members in its whole
    universe, one membership test per element."""
    elements = frozenset(s.decode(i) for i in indices)
    n = s.decode(0).n
    specs = [(fam, n, n) for fam in ("I", "J", "T", "PT", "Pfd", "RR", "LL")]
    if n >= 1:
        specs.append(("RJ", n - 1, n))  # rook diagrams live one degree up
    for fam, deg, m in specs:
        if all(map(_member_test(fam, deg, m), elements)) and (
            len(elements) == _universe_count(fam, deg, m)
        ):
            return f"{fam}{deg}"
    return None


def test_identify_names_each_degree_0_cut_by_table_order(capsys):
    # at degree 0 every cut is the one empty diagram, so the first named
    # family, I, names it; PT is the first named family of relations
    for fam in zoo.FAMILIES:
        s = zoo.build(f"{fam}0")
        sample = s.decode(0)
        if sample.n == 0:
            want = "PT0" if isinstance(sample, rel.BinaryRelation) else "I0"
            assert cli._identify(s, range(s.size)) == want, fam
    assert cli.main(["analyze", "D00", "E"]) == 0
    assert json.loads(capsys.readouterr().out)["regular_family"] == "I0"


def _identify_cases(name):
    """The regular parts of a monoid over each of its semilattices, and the
    whole monoid."""
    s = zoo.build(name)
    yield range(s.size)
    for kind in zoo.SEMILATTICE_KINDS:
        try:
            e = zoo.semilattice_for(kind, name)
        except ValidationError:
            continue
        yield eh.reg_e(s, e)


@pytest.mark.parametrize(
    "name",
    [f"{f}{n}" for f in zoo.FAMILIES for n in range(min(top_degree(f), 3) + 1)]
    + [f"{f}4" for f in zoo.FAMILIES if top_degree(f) >= 4],
)
def test_identify_matches_universe_counting(name):
    s = zoo.build(name)
    for indices in _identify_cases(name):
        assert cli._identify(s, indices) == identify_by_counting(s, indices)


# -- the chunked JSON writer against json.dumps --------------------------------


def dumps(obj):
    """The text the chunks of ``cli._json_stream`` must join to."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def json_text(obj):
    return "".join(cli._json_stream(obj))


class Kept:
    """An iterator that keeps the items it yields, so that what was
    streamed from it can be compared with ``json.dumps`` afterwards."""

    def __init__(self, items):
        self.items, self._rest = [], iter(items)

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._rest)
        self.items.append(item)
        return item


def keep(obj):
    """The dict ``obj`` with each iterator among its values replaced by a
    ``Kept`` of it."""
    return {
        k: Kept(v) if isinstance(v, Iterator) else v for k, v in obj.items()
    }


def plain(data):
    """The dict ``data`` with each value that the writer streams replaced
    by what ``json.dumps`` must write for it: a ``cli._Rows`` of pairs by
    the flat pair list of the stein output, each other ``cli._Rows`` by the
    flat list of its entries and each ``Kept`` by the list of the items it
    yielded."""

    def value(v):
        if type(v) is Kept:
            return v.items
        if type(v) is cli._Rows and v.text is cli._pair:
            return matrix_to_json(v.rows)
        if type(v) is cli._Rows:
            return [x for row in v.rows for x in row]
        return v

    return {k: value(v) for k, v in data.items()}


# quotes, backslashes, control characters and non-ASCII text, beside the
# characters hypothesis draws
TEXT = st.text(st.sampled_from('"\\\n\t\x00\x1f/é€\U0001f600ab')) | st.text()
LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT
    | st.lists(st.integers(), max_size=30)
)
JSON_VALUES = st.recursive(
    LEAVES,
    lambda inner: (
        st.lists(inner, max_size=6)
        | st.tuples(inner, inner)
        | st.dictionaries(TEXT, inner, max_size=6)
        | st.dictionaries(st.integers(), inner, max_size=3)
    ),
    max_leaves=40,
)
# small entries repeat within and across rows, whose texts are made once
ENTRIES = {
    "integers": (str, st.integers(-3, 3) | st.integers()),
    "pairs": (cli._pair, st.integers(-3, 3) | st.fractions(max_denominator=5)),
}


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(TEXT, JSON_VALUES, min_size=1, max_size=6))
def test_json_writer_matches_json_dumps(obj):
    # a command's dict: every value is written by json.dumps
    assert json_text(obj) == dumps(obj)


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_rows_match_the_flat_list(kind, data):
    text, entries = ENTRIES[kind]
    # rows of up to 5 entries, empty ones among them
    rows = data.draw(st.lists(st.lists(entries, max_size=5), max_size=5))
    obj = {"k": [1, {"a": None}], "m": cli._Rows(rows, text), "z": "x"}
    assert json_text(obj) == dumps(plain(obj))


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        {"a": {}, "b": [], "c": [[]], "d": [{}]},
        list(range(-5000, 5000)),
        tuple(range(5000)),
        [1, True, 2, False],  # bools are not integers to the writer
        [1, 2.5, None, "x"],
        {"z": 1, "a": [1, [2, [3, {"y": None}]]], "é": "\u2028"},
        {2: "b", 10: "a"},  # non-string keys: sorted as json.dumps does
        {True: 1},
        [[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]],
        "plain",
        7,
        cli._Rows([[], []], cli._pair),
        cli._Rows([[], [1, Fraction(-2, 3)], [], [0]], cli._pair),
        cli._Rows([]),
        cli._Rows([[], []]),
        # empty rows between rows whose values repeat, and values first
        # met in the last row
        cli._Rows([[7, -1], [], [-1, 7, 7], [], [10**20] * 3]),
        # typed rows, as FiniteMonoid._build_table makes them
        cli._Rows([array("H", [3, 1, 3]), array("H"), array("I", [1])]),
        [v % 7 - 3 for v in range(100)] + [-10**20, 4, 10**20],
    ],
    # a table is named by its entries' text: integers or pairs
    ids=lambda obj: (
        ("_PairMatrix" if obj.text is cli._pair else "_IntRows")
        if type(obj) is cli._Rows else type(obj).__name__
    ),
)
def test_json_writer_edge_cases(obj):
    # each case as a value beside other keys, and a dict with string keys
    # as a command's dict too
    data = {"a": [], "v": obj, "z": {"b": 2}}
    assert json_text(data) == dumps(plain(data))
    if type(obj) is dict and obj and all(type(k) is str for k in obj):
        assert json_text(obj) == dumps(obj)


@pytest.mark.parametrize(
    "items",
    [[], [7], [{}], [[]], [{"n": 2, "blocks": [[1, -1], [2, -2]]}, None, "x"],
     [[1, 2], (3, 4), {"a": [5]}]],
)
def test_iterators_are_written_as_lists(items):
    # each item is made only when it is written, as a dict value beside
    # other keys
    obj = {"b": (item for item in items), "a": 1, "c": [2]}
    assert json_text(obj) == dumps({**obj, "b": items})


def _json_outputs(monkeypatch, argv):
    """The dict a command hands to ``cli._json_stream`` and the texts
    written, one per write, or None when the command writes no JSON."""
    seen, writes = [], []
    original = cli._json_stream

    def stream(obj):
        obj = keep(obj)  # an iterator is spent once it is written
        seen.append(obj)
        return original(obj)

    monkeypatch.setattr(cli, "_json_stream", stream)
    monkeypatch.setattr(cli, "_write_out", lambda text, fh: writes.append(text))
    cli.main(argv)
    if not seen:
        return None
    [obj] = seen
    return obj, writes


def _json_commands(name):
    yield ["build", name]
    for kind in zoo.SEMILATTICE_KINDS:
        yield ["analyze", name, kind]
        yield ["category", name, kind]
        for side in ("left", "right"):
            yield ["stein", name, kind, "--side", side]


@pytest.mark.parametrize(
    "name",
    [f"{f}{n}" for f in zoo.FAMILIES for n in range(min(top_degree(f), 3) + 1)],
)
def test_every_json_output_matches_json_dumps(monkeypatch, capsys, name):
    # stein compares against the flat pair lists the CLI wrote before
    written = 0
    for argv in _json_commands(name):
        got = _json_outputs(monkeypatch, argv)
        if got is not None:
            obj, writes = got
            assert "".join(writes) == dumps(plain(obj)), argv
            written += 1
    capsys.readouterr()
    assert written  # at least the build dump


def test_build_writes_bounded_blocks(monkeypatch):
    # the 6.5 MB dump goes out while it is made, a table row or an element
    # at a time, never as one string or in joined blocks
    _, writes = _json_outputs(monkeypatch, ["build", "RR4"])
    assert len(writes) > 1000
    assert max(map(len, writes)) <= 16 * 1024
    assert sum(map(len, writes)) == 6_465_452


@pytest.mark.parametrize("name", ["RR4", "LL4"])
def test_out_file_matches_stdout(tmp_path, capsys, name):
    for i, argv in enumerate(_json_commands(name)):
        stdout, out = tmp_path / f"stdout{i}", tmp_path / f"out{i}"
        with open(stdout, "w") as fh, contextlib.redirect_stdout(fh):
            code = cli.main(argv)
        assert cli.main(argv + ["--out", str(out)]) == code, argv
        if code == 2:  # a kind the family lacks: nothing written
            assert not out.exists() and stdout.stat().st_size == 0, argv
        else:
            assert out.read_bytes() == stdout.read_bytes(), argv
            out.unlink()  # the stein outputs are 45 MB each
        stdout.unlink()
    capsys.readouterr()
    assert not list(tmp_path.iterdir())  # no temp file left


def test_failed_write_leaves_no_file(monkeypatch, tmp_path, capsys):
    # the disk fills after the first block: exit 2, one error line and
    # neither the target nor its temp file left behind
    calls = []
    original = cli._write_out

    def write_out(text, fh):
        calls.append(text)
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        original(text, fh)

    monkeypatch.setattr(cli, "_write_out", write_out)
    target = tmp_path / "rr4.json"
    assert cli.main(["build", "RR4", "--out", str(target)]) == 2
    out, err = capsys.readouterr()
    assert len(calls) == 2
    assert list(tmp_path.iterdir()) == []
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_out_into_a_missing_directory_names_the_path_asked_for(
    tmp_path, capsys
):
    # the error names --out, not the random temp file beside it
    target = tmp_path / "missing" / "x"
    errors = []
    for _ in range(2):
        assert cli.main(["build", "P1", "--out", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        errors.append(err)
    assert errors[0] == errors[1]
    assert errors[0] == (
        f"error: [Errno 2] No such file or directory: '{target}'\n"
    )


@pytest.mark.parametrize(
    "section, check, most",
    [
        ("3", "check_relation_suite", 8),
        # the restriction sets of P2 have at most 7 elements
        ("4", "check_restriction_subsemigroups", 4),
    ],
)
def test_state_error_in_a_check_is_one_failed_line(
    monkeypatch, capsys, section, check, most
):
    # every subset of more than ``most`` elements reads as not closed, so
    # rest_subsemigroups raises StateError; the suite still prints and exits 1
    original = FiniteMonoid.closed

    def closed(m, indices):
        return len(set(indices)) <= most and original(m, indices)

    monkeypatch.setattr(FiniteMonoid, "closed", closed)
    assert cli.main(["verify", section, "--nmax", "2"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    failure = f"[FAIL] {check}  (left restriction set not closed)"
    assert failure in [x for x in lines if x.startswith("[FAIL]")]
    assert lines[-1].endswith("checks passed")
    if section == "3":
        # the error ends only degree 2 of the relation suite: the degree-1
        # lines and the degree-2 Ehresmann line stay, the sizes follow
        kept = (
            "all binary relations on 1 points",
            "degree-1 relations",
            "endomorphisms in the partial-function category at degree 1",
            "all binary relations on 2 points",
        )
        assert lines.index(failure) == len(kept)
        assert all(x.startswith(f"[PASS] {k}") for x, k in zip(lines, kept))
        assert lines[-1] == "7/8 checks passed"


@pytest.mark.parametrize("name", ["P2", "P3"])
def test_state_error_is_contained_per_check_and_degree(
    monkeypatch, capsys, name
):
    # a monoid that cannot be built fails each (check, degree) that needs
    # it with one line; every other line of the suite prints as before
    assert cli.main(["verify", "all"]) == 0
    clean = capsys.readouterr().out.splitlines()
    original = zoo.build

    def build(family):
        if family == name:
            raise StateError(f"{name} withheld")
        return original(family)

    monkeypatch.setattr(zoo, "build", build)
    assert cli.main(["verify", "all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(clean) == 59
    changed = [x for x, y in zip(lines[:-1], clean[:-1]) if x != y]
    assert changed and all(x.startswith("[FAIL] check_") for x in changed)
    assert lines[-1] == f"{58 - len(changed)}/58 checks passed"


@pytest.mark.parametrize("nmax", [0, 1, 2, 3, 4, None])
def test_passed_results_are_the_summary_count(capsys, nmax):
    # a reader that sums ``passed`` gets the N of "N/M checks passed":
    # a skipped result is not a pass
    argv = ["verify", "all"] + ([] if nmax is None else ["--nmax", str(nmax)])
    assert cli.main(argv) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    passed = sum(r.passed for r in verify.run_suite("all", nmax))
    assert summary.startswith(f"{passed}/")
