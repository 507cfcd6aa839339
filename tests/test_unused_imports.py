"""No module of the package or of the tests imports a name it never uses.

An `ast` pass over every file under `src/` and `tests/`: a name bound by an
import must appear as a name somewhere in the same file, or be listed in
the module's `__all__`.  `from __future__` imports are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(tree: ast.Module):
    """(line, name) of every imported name that the module never reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [(line, name) for line, name in imported if name not in used]


def test_the_checker_flags_an_unused_import_and_honours_all():
    tree = ast.parse("import os\nimport sys as system\nfrom math import pi, tau\n"
                     "from __future__ import annotations\n"
                     "__all__ = ['tau']\nprint(os.sep)\n")
    assert unused_imports(tree) == [(2, "system"), (3, "pi")]


def test_no_module_imports_a_name_it_never_uses():
    found = []
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")]):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d %s" % (path.relative_to(ROOT), line, name)
                  for line, name in unused_imports(tree)]
    assert found == []
