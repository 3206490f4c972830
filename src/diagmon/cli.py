"""Command-line front end.

Subcommands build named monoids, analyze their Ehresmann structure, emit
egg-box DOT diagrams, dump the associated category, export the transform
matrices, and run the verification suites.  Every fact about a family is
``zoo``'s: ``analyze`` names a regular part by ``zoo.identify``.  Outputs
are deterministic: JSON keys are sorted and files are written atomically
(temp file plus rename).  The JSON text is byte-identical to
``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline, but made as
a stream of chunks (``_json_stream``), a table one row at a time
(``_Rows``), each chunk written as it is made (``_write``): no string of
the whole output exists.  On 2 vCPUs ``build RR4`` peaks at 20 MB, its
table read from typed rows and its elements made one by one, and
``stein Pfd4 F --side right`` at 20 MB, each matrix row made as it is
written.  The format of the ``build`` dump is set here alone.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from collections import namedtuple
from collections.abc import Iterator

from . import algebra, ehresmann as eh, dotout, verify, zoo
from .errors import ResourceCapError, StateError, ValidationError
from .monoid import TABLE_CAP

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _write_out(text, fh):
    """Write one chunk of the output; every output byte goes through here."""
    fh.write(text)


def _write(chunks, out):
    """Write an output's chunks to ``out``, or to stdout when it is None,
    each as it is made, so no string of the whole output is made.  A file
    is written to a temp file beside it, renamed over ``out`` once
    complete and removed on any failure."""
    if out is None:
        for chunk in chunks:
            _write_out(chunk, sys.stdout)
        return
    directory = os.path.dirname(os.path.abspath(out))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError as exc:  # name the path asked for, not the temp file
        raise OSError(exc.errno, exc.strerror, out) from None
    try:
        with os.fdopen(fd, "w") as fh:
            for chunk in chunks:
                _write_out(chunk, fh)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_Rows = namedtuple("_Rows", "rows text", defaults=(str,))
_Rows.__doc__ = """A table given as its rows, written as the flat row-major
list of its entries; ``text`` gives an entry's JSON text as a list item."""


# the newline and indent that start each line of a value of a command's
# dict, and of an item of a list that is such a value
_VALUE, _ITEM = "\n  ", "\n    "


def _dumps(obj, nl):
    """``json.dumps`` of ``obj``, its lines started by ``nl``."""
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", nl)


def _pair(v):
    """The [numerator, denominator] text of a rational as a list item; v
    gives [v, 1]."""
    return _dumps([v.numerator, v.denominator], _ITEM)


def _json_stream(data):
    """The chunks of ``json.dumps(data, sort_keys=True, indent=2) + "\\n"``
    for a command's dict ``data``, non-empty with string keys.  Each value
    is one ``json.dumps``, but with an indent ``json`` keeps a list of
    every leaf, so the large ones stream: a ``_Rows`` row by row and an
    iterator as the list of its items, each made only when it is written."""
    lead = "{"
    for key, value in sorted(data.items()):
        yield lead + _VALUE + json.dumps(key) + ": "
        lead = ","
        if type(value) is _Rows:
            texts = _Texts(value.text)
            yield from _list_chunks(
                ("," + _ITEM).join(map(texts.__getitem__, row))
                for row in value.rows
            )
        elif isinstance(value, Iterator):
            yield from _list_chunks(_dumps(item, _ITEM) for item in value)
        else:
            yield _dumps(value, _VALUE)
    yield "\n}\n"


def _list_chunks(texts):
    """A list value from the texts of its items at ``_ITEM``, each text
    one item or more: one chunk per non-empty text."""
    lead = "[" + _ITEM
    for text in filter(None, texts):
        yield lead + text
        lead = "," + _ITEM
    yield _VALUE + "]" if lead[0] == "," else "[]"


class _Texts(dict):
    """The text of each entry, made when first asked for and kept."""

    def __init__(self, text):
        super().__init__()
        self.text = text

    def __missing__(self, v):
        t = self[v] = self.text(v)
        return t


def cmd_build(args):
    m = zoo.build(args.family)
    if m.size > TABLE_CAP:
        raise ResourceCapError(
            f"{args.family} has {m.size} elements, above the Cayley-table "
            f"cap {TABLE_CAP}; no dump emitted",
            TABLE_CAP,
        )
    data = {
        "elements": (x.to_json() for x in m.elements),
        "identity": m.identity,
        "mul": _Rows(m._build_table()),
        "size": m.size,
    }
    _write(_json_stream(data), args.out)
    return EXIT_OK


def cmd_analyze(args):
    e = zoo.semilattice_for(args.semilattice, args.family)
    s = e.parent
    report = eh.check_axioms(s, e)
    data = report.to_json()
    data["size"] = s.size
    try:
        rest_l, rest_r, rest = eh.rest_subsemigroups(s, e)
        data["rest_sizes"] = {
            "left": len(rest_l),
            "right": len(rest_r),
            "two_sided": len(rest),
        }
    except StateError as exc:
        data["rest_sizes"] = None
        data["rest_error"] = str(exc)
    reg = eh.reg_e(s, e)
    data["regular_count"] = len(reg)
    data["regular_family"] = zoo.identify(s, reg)
    _write(_json_stream(data), args.out)
    return EXIT_OK


def cmd_eggbox(args):
    m = zoo.build(args.family)
    shade = None
    if args.shade:
        with open(args.shade, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (ValueError, RecursionError) as exc:
                # bad UTF-8 or JSON, an integer too long for int(), or
                # nesting too deep for the decoder
                raise ValidationError(
                    f"unreadable shade file {args.shade}: {exc}"
                ) from None
        shade = _shade_indices(m, data, args.family)
    dot = dotout.emit_eggbox(m, shade=shade, title=args.family)
    _write((dot,), args.out)
    return EXIT_OK


def _shade_indices(m, data, family):
    """Indices of the elements listed in a shade file's JSON array.  Each
    item's degree ``n`` must be the family's before the item is decoded,
    as the decoder allocates per point."""
    if not isinstance(data, list):
        raise ValidationError("the shade file must hold a JSON array")
    sample = m.elements[0]
    decode, n = type(sample).from_json, sample.n
    out = set()
    for item in data:
        if not isinstance(item, dict) or type(item.get("n")) is not int:
            raise ValidationError(f"malformed shade item {item!r}")
        if item["n"] != n:
            raise ValidationError(
                f"shade item {item!r} is not of degree {n}, the degree of "
                f"the elements of {family}"
            )
        try:
            x = decode(item)
        except (LookupError, TypeError, ValueError):
            raise ValidationError(f"malformed shade item {item!r}") from None
        if x not in m.index:
            raise ValidationError(f"shade item {item!r} is not in {family}")
        out.add(m.index[x])
    return out


def cmd_category(args):
    e = zoo.semilattice_for(args.semilattice, args.family)
    s = e.parent
    hom = algebra.build_category(s, e)
    flag, witness = algebra.is_ei(s, e)
    data = {
        "objects": len(e.members),
        "hom_sizes": {f"{a}->{b}": len(v) for (a, b), v in sorted(hom.items())},
        "ei": flag,
        "ei_witness": witness,
    }
    _write(_json_stream(data), args.out)
    return EXIT_OK


def cmd_stein(args):
    e = zoo.semilattice_for(args.semilattice, args.family)
    s = e.parent
    ok = algebra.verify_stein(s, e, args.side)
    below = algebra.natural_order(s, e, args.side)
    data = {
        "side": args.side,
        "dimension": s.size,
        "multiplicative": ok,
        "zeta": _Rows(algebra.zeta_matrix(below), _pair),
        "mobius": _Rows(algebra.mobius_inverse(below), _pair),
    }
    _write(_json_stream(data), args.out)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_verify(args):
    results = verify.run_suite(args.section, args.nmax)
    lines = [r.line() for r in results]
    checked = [r for r in results if not r.skipped]
    failed = sum(1 for r in checked if not r.passed)
    lines.append(f"{len(checked) - failed}/{len(checked)} checks passed")
    _write(("\n".join(lines) + "\n",), args.out)
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def make_parser():
    parser = argparse.ArgumentParser(
        prog="diagmon",
        description="Diagram-monoid construction and structural analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output path (stdout when omitted)")

    p = sub.add_parser("build", help="dump a monoid's Cayley table")
    p.add_argument("family", help="family name, e.g. P3, B2, RR4, BX2")
    common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("analyze", help="axiom report for (monoid, semilattice)")
    p.add_argument("family")
    p.add_argument("semilattice", choices=zoo.SEMILATTICE_KINDS)
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("eggbox", help="egg-box diagram as DOT")
    p.add_argument("family")
    p.add_argument("--shade", help="JSON file of elements to highlight")
    common(p)
    p.set_defaults(func=cmd_eggbox)

    p = sub.add_parser("category", help="hom-set structure and the EI check")
    p.add_argument("family")
    p.add_argument("semilattice", choices=zoo.SEMILATTICE_KINDS)
    common(p)
    p.set_defaults(func=cmd_category)

    p = sub.add_parser("stein", help="transform and Mobius matrices")
    p.add_argument("family")
    p.add_argument("semilattice", choices=zoo.SEMILATTICE_KINDS)
    p.add_argument("--side", choices=eh.SIDES, required=True)
    common(p)
    p.set_defaults(func=cmd_stein)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("section", choices=(*verify.SUITES, "all"))
    p.add_argument("--nmax", type=int, default=None, help="degree cap")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"error: {exc} (cap {exc.cap})", file=sys.stderr)
        return EXIT_CAP
    except (ValidationError, StateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
