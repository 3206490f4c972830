"""Every name that ``src/diagmon`` defines has a reader in ``src/diagmon``.

The census lists each module-level function, class and constant and each
method and class attribute (dunders aside, which Python reads itself) that
no code in the package reads: a module-level name by name or as an
attribute, a class member as an attribute.  Each unread name must be on
``ALLOWED`` with the reason it stays, and each allowed name must be unread.
Each name a module imports must be read in that module, and importing the
CLI must load none of ``dataclasses``, ``inspect`` and ``typing``, whose
import every command would pay in its fresh process.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "diagmon"

ALLOWED = {
    "__init__.__version__": "the package version",
    "__init__.__all__": "the package's public modules",
    "algebra.BASIS_CAP": "read by the benchmark tracer, perfbench/ (item 8)",
    "monoid.FiniteMonoid.table": "read by the benchmark tracer (item 8)",
    "algebra.check_semisimple_quotient": "run by the benchmark (item 8)",
    "relations.converse": "for the duality claims of item 3",
}


def _members(body, prefix):
    """(qualified name, name) of each def, class and assigned name."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{prefix}.{node.name}", node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield f"{prefix}.{n.id}", n.id


def test_every_name_in_src_has_a_reader_in_src():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    loads = [n for t in trees.values() for n in ast.walk(t)
             if isinstance(getattr(n, "ctx", None), ast.Load)]
    names = {n.id for n in loads if isinstance(n, ast.Name)}
    attrs = {n.attr for n in loads if isinstance(n, ast.Attribute)}
    unread = set()
    for mod, tree in trees.items():
        unread |= {q for q, n in _members(tree.body, mod)
                   if n not in names | attrs}
        for cls in (c for c in tree.body if isinstance(c, ast.ClassDef)):
            unread |= {q for q, n in _members(cls.body, f"{mod}.{cls.name}")
                       if n not in attrs and not n.startswith("__")}
    assert unread == set(ALLOWED)


def test_every_import_in_src_is_read_in_its_module():
    # an annotation is an expression of the tree, so a name read only there
    # counts, and so does one inside a quoted annotation
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        quoted = [
            ast.parse(c.value, mode="eval")
            for n in ast.walk(tree)
            for note in (getattr(n, "annotation", None),
                         getattr(n, "returns", None)) if note is not None
            for c in ast.walk(note)
            if isinstance(c, ast.Constant) and isinstance(c.value, str)
        ]
        read = {n.id for t in (tree, *quoted) for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        assert imported <= read, (path.name, sorted(imported - read))


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # the modules that ``import diagmon.cli`` adds to a bare interpreter's;
    # -S keeps out ``site``, which may load any of them itself (through a
    # .pth file of an installed package, say) and so hide the CLI's import
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    loaded = [
        set(subprocess.run(
            [sys.executable, "-S", "-c",
             f"import sys{more}; print(*sys.modules)"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.split())
        for more in ("", ", diagmon.cli")
    ]
    assert "diagmon.cli" in loaded[1] - loaded[0]
    assert not {"dataclasses", "inspect", "typing"} & (loaded[1] - loaded[0])
