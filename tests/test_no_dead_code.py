"""Every name defined in `src/catmeas` or `tests/oracles.py` is used
somewhere.

A top-level function or class, or a method, public or private, whose
name (as a whole word) appears nowhere outside its own definition in
`src/`, `tests/`, `demos/` or `bench/` is dead code and fails the test:
in the library, code nothing runs; among the oracles, one whose test is
gone.  Dunders are exempt: Python calls them by protocol, not by name.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "demos", "bench")
WORD = re.compile(r"\w+")


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(name, node) for the top-level functions and classes and the
    methods of those classes, dunders aside."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds) or is_dunder(node.name):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, kinds[:2]) and not is_dunder(sub.name):
                    yield f"{node.name}.{sub.name}", sub


def unreferenced_names():
    texts = {p: p.read_text() for d in SEARCHED for p in sorted((ROOT / d).rglob("*.py"))}
    words = Counter(w for text in texts.values() for w in WORD.findall(text))
    dead = []
    checked = sorted((ROOT / "src" / "catmeas").glob("*.py")) + [ROOT / "tests" / "oracles.py"]
    for path in checked:
        lines = texts[path].splitlines()
        for qualname, node in definitions(ast.parse(texts[path])):
            own = "\n".join(lines[node.lineno - 1:node.end_lineno])
            if words[node.name] == WORD.findall(own).count(node.name):
                dead.append(f"{path.stem}.{qualname} ({path.name}:{node.lineno})")
    return dead


def test_every_public_name_is_referenced():
    assert unreferenced_names() == []

