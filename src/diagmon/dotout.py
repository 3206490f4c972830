"""Egg-box diagrams as Graphviz DOT, drawn straight from ``monoid.green``.

One cluster per D-class, ordered top-down by the J-order (the size of its
below-set, ties by class id), each holding an HTML-like table whose rows
are R-classes and columns are L-classes, both in order of minimal element.
Group H-classes (those containing an idempotent) get a grey background; an
optional shading set marks cells in orange (dark orange when the cell is
also a group).  Edges follow the covers of the J-order, read off the
below-sets.  Node names and cell contents are derived from canonical
element encodings so output is byte-stable across runs.
"""

from __future__ import annotations

from .diagrams import Partition
from .monoid import FiniteMonoid, green, idempotents

GROUP_COLOR = "#d3d3d3"
SHADE_COLOR = "#ffa500"
SHADE_GROUP_COLOR = "#ff8c00"


def element_text(x):
    """A compact one-line rendering of a diagram or relation."""
    if isinstance(x, Partition):
        return " | ".join(
            " ".join(str(v) for v in block) for block in x.blocks()
        )
    pairs = sorted(x.pairs())
    if not pairs:
        return "(empty)"
    return " ".join(f"{a}>{b}" for a, b in pairs)


def element_slug(x):
    """A DOT-identifier-safe name derived from the canonical encoding."""
    if isinstance(x, Partition):
        body = "_".join(str(c) for c in x.code)
        return f"p{x.n}_{body}"
    body = "_".join(str(r) for r in x.rows)
    return f"r{x.n}_{body}"


def _escape(text):
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def emit_eggbox(m: FiniteMonoid, shade=None, title="eggbox") -> str:
    """DOT source for the egg-box diagram of a finite monoid.

    shade is an optional set of element indices to highlight.
    """
    gs = green(m)
    ids = idempotents(m)
    shade = frozenset(shade or ())
    lines = [
        f'digraph "{title}" {{',
        "  rankdir=TB;",
        '  node [shape=plaintext, fontname="monospace"];',
    ]
    by_d = {}
    for x in range(m.size):
        by_d.setdefault(gs.d_class[x], []).append(x)
    order = sorted(by_d, key=lambda d: (-len(gs.below[d]), d))
    node_of = {}
    for d in order:
        members = by_d[d]
        node = node_of[d] = "D_" + element_slug(m.decode(members[0]))
        lines.append(f'  subgraph "cluster_{node}" {{')
        lines.append(f'    label="{len(members)} elements";')
        cells = {}
        for x in members:
            cells.setdefault((gs.r_class[x], gs.l_class[x]), []).append(x)
        rows = dict.fromkeys(r for r, _ in cells)
        cols = dict.fromkeys(l for _, l in cells)
        rows_html = []
        for r in rows:
            cells_html = []
            for l in cols:
                cell = cells.get((r, l))
                if cell is None:
                    cells_html.append("<TD></TD>")
                    continue
                is_group = any(i in ids for i in cell)
                is_shaded = any(i in shade for i in cell)
                if is_group and is_shaded:
                    attr = f' BGCOLOR="{SHADE_GROUP_COLOR}"'
                elif is_shaded:
                    attr = f' BGCOLOR="{SHADE_COLOR}"'
                elif is_group:
                    attr = f' BGCOLOR="{GROUP_COLOR}"'
                else:
                    attr = ""
                body = "<BR/>".join(
                    _escape(element_text(m.decode(i))) for i in cell
                )
                cells_html.append(f"<TD{attr}>{body}</TD>")
            rows_html.append("<TR>" + "".join(cells_html) + "</TR>")
        table = (
            '<<TABLE BORDER="0" CELLBORDER="1" CELLSPACING="0">'
            + "".join(rows_html)
            + "</TABLE>>"
        )
        lines.append(f'    "{node}" [label={table}];')
        lines.append("  }")
    # edges along covers of the J-order, drawn downward: a is covered by b
    # when it lies strictly below b and strictly below no class that does
    strictly = [bs - {b} for b, bs in enumerate(gs.below)]
    for b in order:
        for a in sorted(strictly[b]):
            if not any(a in strictly[c] for c in strictly[b]):
                lines.append(f'  "{node_of[b]}" -> "{node_of[a]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
