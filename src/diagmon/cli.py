"""Command-line front end.

Subcommands build named monoids, analyze their Ehresmann structure, emit
egg-box DOT diagrams, dump the associated category, export the transform
matrices, and run the verification suites.  Outputs are deterministic:
JSON keys are sorted and files are written atomically (temp file plus
rename).  The JSON text is byte-identical to
``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline, but made as
a stream of chunks of bounded size (``_json_stream``), every flat table
one row at a time (``_Rows``), and written in blocks of about 64 KiB as
it is made (``_write``): no string of the whole output exists.  On
2 vCPUs ``build RR4`` peaks at 28 MB and ``stein Pfd4 F --side right``
at 33 MB, where ``json.dumps`` took 92 MB and 527 MB.  The format of the
``build`` dump is set here alone.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Callable, NamedTuple

from . import algebra, ehresmann as eh, dotout, verify, zoo
from .errors import ResourceCapError, StateError, ValidationError
from .monoid import TABLE_CAP
from .relations import BinaryRelation

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAP = 3


BLOCK = 1 << 16  # a block is written once it holds this many characters


def _write_out(text, fh):
    """Write one block of the output; every output byte goes through here."""
    fh.write(text)


def _write(chunks, out):
    """Write an output's chunks to ``out``, or to stdout when it is None,
    in blocks of about ``BLOCK`` characters, so no string of the whole
    output is made.  A file is written to a temp file beside it, renamed
    over ``out`` once complete and removed on any failure."""
    if out is None:
        _write_blocks(chunks, sys.stdout)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            _write_blocks(chunks, fh)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_blocks(chunks, fh):
    """Join the chunks into blocks of at most ``BLOCK`` characters plus one
    chunk and write each one."""
    block, size = [], 0
    for chunk in chunks:
        block.append(chunk)
        size += len(chunk)
        if size >= BLOCK:
            _write_out("".join(block), fh)
            block, size = [], 0
    if block:
        _write_out("".join(block), fh)


class _Rows(NamedTuple):
    """A table given as its rows, written as the flat row-major list of
    its entries; ``text`` gives an entry's JSON text at indent 0."""

    rows: list
    text: Callable = str


def _pair(v):
    """The [numerator, denominator] text of a rational; v gives [v, 1]."""
    return json.dumps([v.numerator, v.denominator], indent=2)


def _json_stream(obj):
    """The chunks of ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``,
    each of bounded size: a ``_Rows`` or a flat integer list goes row by
    row, so no list of every leaf is held."""
    yield from _json_chunks(obj, "\n")
    yield "\n"


def _json_chunks(obj, nl):
    """The JSON text of ``obj`` whose lines start with ``nl``, a newline and
    the current indent.  Dicts with string keys and lists are written
    here; every leaf, empty container, tuple and dict with other keys by
    ``json.dumps``, re-indented, as JSON text holds no raw newline."""
    inner = nl + "  "
    sep = "," + inner
    if type(obj) is dict and obj and all(type(k) is str for k in obj):
        yield "{"
        for i, (key, value) in enumerate(sorted(obj.items())):
            yield (sep if i else inner) + json.dumps(key) + ": "
            yield from _json_chunks(value, inner)
        yield nl + "}"
    elif type(obj) is list and obj and set(map(type, obj)) == {int}:
        yield from _rows_chunks(_Rows([obj]), nl)
    elif type(obj) is list and obj:
        yield "["
        for i, value in enumerate(obj):
            yield sep if i else inner
            yield from _json_chunks(value, inner)
        yield nl + "]"
    elif type(obj) is _Rows:
        yield from _rows_chunks(obj, nl)
    else:
        yield json.dumps(obj, sort_keys=True, indent=2).replace("\n", nl)


def _rows_chunks(obj, nl):
    """The flat list of a ``_Rows``, one chunk per non-empty row, with the
    text of each distinct entry made once."""
    inner = nl + "  "
    sep = "," + inner
    texts = {}
    lead = "[" + inner
    for row in filter(None, obj.rows):
        for v in set(row).difference(texts):
            texts[v] = obj.text(v).replace("\n", inner)
        # the lead goes out apart: a copy of each row joined to it would
        # fragment the heap, by 4 MB on build RR4
        yield lead
        yield sep.join(map(texts.__getitem__, row))
        lead = sep
    yield nl + "]" if lead is sep else "[]"


def cmd_build(args):
    m = zoo.build(args.family)
    if m.size > TABLE_CAP:
        raise ResourceCapError(
            f"{args.family} has {m.size} elements, above the Cayley-table "
            f"cap {TABLE_CAP}; no dump emitted",
            TABLE_CAP,
        )
    data = {
        "elements": [x.to_json() for x in m.elements],
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
    data["regular_family"] = _identify(s, reg)
    _write(_json_stream(data), args.out)
    return EXIT_OK


def _identify(s, indices):
    """Name the first family of ``zoo.FAMILIES`` marked ``named`` whose
    element set equals the given subset.  A set of diagrams of degree n is
    compared with the cuts in ``zoo.family_cuts(n)`` (a rook family's of
    degree n - 1), none of them built; a set of relations with each built
    relation family of degree n, which is a whole universe."""
    elements = {s.decode(i) for i in indices}
    sample = s.decode(0)
    n, relations = sample.n, isinstance(sample, BinaryRelation)
    for fam, family in zoo.FAMILIES.items():
        rook = family.universe == "rook"
        if not family.named or n < rook or relations != (
            family.universe in ("BX", "PT")
        ):
            continue
        if family.member is None:
            members = zoo.build(f"{fam}{n}").elements
        else:
            universe = zoo.partition_universe(n)
            members = [universe[i] for i in zoo.family_cuts(n)[fam]]
        if elements == set(members):
            return f"{fam}{n - rook}"
    return None


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
    cat = algebra.build_category(s, e)
    flag, witness = algebra.is_ei(cat)
    data = {
        "objects": len(cat.objects()),
        "hom_sizes": {
            f"{a}->{b}": len(v) for (a, b), v in sorted(cat.hom.items())
        },
        "ei": flag,
        "ei_witness": witness,
    }
    _write(_json_stream(data), args.out)
    return EXIT_OK


def cmd_stein(args):
    e = zoo.semilattice_for(args.semilattice, args.family)
    s = e.parent
    z = algebra.stein_transform(s, e, args.side)
    m = algebra.mobius_inverse(algebra.natural_order(s, e, args.side))
    ok = algebra.verify_stein(s, e, args.side)
    data = {
        "side": args.side,
        "dimension": s.size,
        "multiplicative": ok,
        "zeta": _Rows(z, _pair),
        "mobius": _Rows(m, _pair),
    }
    _write(_json_stream(data), args.out)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_verify(args):
    results = verify.run_suite(args.section, args.nmax)
    lines = [r.line() for r in results]
    failed = sum(1 for r in results if not r.passed)
    lines.append(
        f"{len(results) - failed}/{len(results)} checks passed"
    )
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
    p.add_argument("section", choices=("2", "3", "4", "5", "all"))
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
