"""Egg-box diagrams as Graphviz DOT.

One cluster per D-class, ordered top-down by the J-order, each holding an
HTML-like table whose rows are R-classes and columns are L-classes.  Group
H-classes (those containing an idempotent) get a grey background; an
optional shading set marks cells in orange (dark orange when the cell is
also a group).  Node names and cell contents are derived from canonical
element encodings so output is byte-stable across runs.
"""

from __future__ import annotations

from .diagrams import Partition
from .monoid import FiniteMonoid, eggbox, green

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
    boxes = eggbox(m)
    shade = frozenset(shade or ())
    lines = [
        f'digraph "{title}" {{',
        "  rankdir=TB;",
        '  node [shape=plaintext, fontname="monospace"];',
    ]
    node_of = {}
    for box in boxes:
        members = sorted(i for c in box.cells.values() for i in c)
        node = "D_" + element_slug(m.decode(members[0]))
        node_of[box.d_id] = node
        lines.append(f'  subgraph "cluster_{node}" {{')
        lines.append(f'    label="{len(members)} elements";')
        rows_html = []
        for r in box.rows:
            cells_html = []
            for l in box.cols:
                cell = box.cells.get((r, l))
                if cell is None:
                    cells_html.append("<TD></TD>")
                    continue
                is_group = (r, l) in box.group_cells
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
    # edges along covers of the J-order, drawn downward
    d_ids = [b.d_id for b in boxes]
    strictly_below = {
        b: {a for a in d_ids if a != b and (a, b) in gs.d_order} for b in d_ids
    }
    for b in d_ids:
        for a in strictly_below[b]:
            if not any(
                a in strictly_below[c] for c in strictly_below[b] if c != a
            ):
                lines.append(f'  "{node_of[b]}" -> "{node_of[a]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
