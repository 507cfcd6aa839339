"""Row keys and sorted-key lookups have one owner, `cayley`.

An `ast` pass over every module under `src/` but `cayley.py`: none builds an
`np.void` dtype, views an array as uint64 or calls `searchsorted`.  Rows are
keyed by `cayley.pack_keys` and looked up by `cayley.find_keys`; bit vectors
are keyed by `SubgroupBits.key`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
OWNER = "cayley.py"


def key_sites(tree: ast.Module):
    """(line, what) of every void dtype, uint64 view and sorted search."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("void", "searchsorted"):
            found.append((node.lineno, node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "view"
              and any(t in ast.unparse(a) for a in node.args for t in ("uint64", "u8"))):
            found.append((node.lineno, "uint64 view"))
    return found


def test_the_checker_flags_each_key_site():
    tree = ast.parse("k = a.view(np.dtype((np.void, 16)))\nw = b.view(np.uint64)\n"
                     "x = c.view('<u8')\np = np.searchsorted(k, w)\nok = d.view(bool)\n")
    assert sorted(key_sites(tree)) == [(1, "void"), (2, "uint64 view"),
                                       (3, "uint64 view"), (4, "searchsorted")]


def test_only_the_owner_keys_rows():
    found = []
    for path in sorted(SRC.glob("**/*.py")):
        if path.name != OWNER:
            tree = ast.parse(path.read_text(), filename=str(path))
            found += ["%s:%d %s" % (path.name, line, what) for line, what in key_sites(tree)]
    assert found == []
    assert key_sites(ast.parse((SRC / "d4fusion" / OWNER).read_text()))
