"""DOT emitter: determinism, structure, shading; the egg-box and analyze
outputs of every admitted name up to degree 4, pinned."""

import hashlib

from diagmon import cli, dotout, relations as rel, zoo
from diagmon.diagrams import from_blocks

from oracles import empty_rel, top_degree

GOLDEN_B2 = """digraph "B2" {
  rankdir=TB;
  node [shape=plaintext, fontname="monospace"];
  subgraph "cluster_D_p2_0_1_0_1" {
    label="2 elements";
    "D_p2_0_1_0_1" [label=<<TABLE BORDER="0" CELLBORDER="1" CELLSPACING="0"><TR><TD BGCOLOR="#d3d3d3">1 -1 | 2 -2<BR/>1 -2 | 2 -1</TD></TR></TABLE>>];
  }
  subgraph "cluster_D_p2_0_0_1_1" {
    label="1 elements";
    "D_p2_0_0_1_1" [label=<<TABLE BORDER="0" CELLBORDER="1" CELLSPACING="0"><TR><TD BGCOLOR="#d3d3d3">1 2 | -1 -2</TD></TR></TABLE>>];
  }
  "D_p2_0_1_0_1" -> "D_p2_0_0_1_1";
}
"""


def test_golden_brauer_degree_2():
    assert dotout.emit_eggbox(zoo.build("B2"), title="B2") == GOLDEN_B2


# sha256 of the egg-boxes of every admitted name of degree at most 4, in
# zoo.FAMILIES order and then by degree, each titled by its name
EVERY_EGGBOX_SHA256 = (
    "8ad50624c7775b8565ca16cee36bf6be4204a7fcdb4b1f9a09879e386817eb44"
)


NAMES_UP_TO_4 = [
    f"{f}{n}" for f in zoo.FAMILIES for n in range(min(top_degree(f), 4) + 1)
]


def test_every_eggbox_up_to_degree_4_is_pinned():
    assert len(NAMES_UP_TO_4) == 82
    digest = hashlib.sha256()
    for name in NAMES_UP_TO_4:
        digest.update(dotout.emit_eggbox(zoo.build(name), title=name).encode())
    assert digest.hexdigest() == EVERY_EGGBOX_SHA256


# sha256 of the ``analyze`` outputs of the same names, each with every
# semilattice kind it accepts in zoo.SEMILATTICE_KINDS order: the witnesses,
# tilde counts, rest_sizes, plus and star, P4's generator sweep among them.
# Recorded before L3, R3 and the restriction parts shared one containment
# test and the tilde labellings took the side names 'left' and 'right'.
EVERY_ANALYZE_SHA256 = (
    "93ef1c9561197326d054cd9f79f7830549e98c50e512bd40a431b6c320332227"
)


def test_every_analysis_up_to_degree_4_is_pinned(capsys):
    digest, outputs = hashlib.sha256(), 0
    for name in NAMES_UP_TO_4:
        for kind in zoo.SEMILATTICE_KINDS:
            code = cli.main(["analyze", name, kind])
            out = capsys.readouterr().out
            assert code in (cli.EXIT_OK, cli.EXIT_USAGE), (name, kind)
            if code == cli.EXIT_OK:
                outputs += 1
                digest.update(out.encode())
    assert outputs == 144
    assert digest.hexdigest() == EVERY_ANALYZE_SHA256


def test_emission_is_deterministic():
    m = zoo.build("PT2")
    assert dotout.emit_eggbox(m) == dotout.emit_eggbox(m)


def test_cluster_count_equals_d_class_count():
    for name, want in (("RR2", 3), ("RR4", 5), ("Pfd4", 4), ("P0", 1)):
        dot = dotout.emit_eggbox(zoo.build(name), title=name)
        assert dot.count("subgraph") == want


def test_shading_marks_requested_cells():
    m = zoo.build("P2")
    shaded = dotout.emit_eggbox(m, shade={m.identity})
    plain = dotout.emit_eggbox(m)
    assert dotout.SHADE_GROUP_COLOR in shaded  # the identity cell is a group
    assert dotout.SHADE_GROUP_COLOR not in plain


def test_element_text_and_slug():
    a = from_blocks([[1, -1], [2], [-2]], 2)
    assert dotout.element_text(a) == "1 -1 | 2 | -2"
    assert dotout.element_slug(a) == "p2_0_1_0_2"
    r = rel.from_pairs(2, [(1, 2)])
    assert dotout.element_text(r) == "1>2"
    assert dotout.element_text(empty_rel(2)) == "(empty)"
    assert dotout.element_slug(r) == "r2_2_0"
