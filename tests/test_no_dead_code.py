"""Every public name defined in `src/catmeas` is used somewhere.

A public top-level function or class, or a public method, whose name
(as a whole word) appears nowhere outside its own definition in
`src/`, `tests/`, `demos/` or `bench/` is dead code and fails the test.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "demos", "bench")
WORD = re.compile(r"\w+")


def public_definitions(tree):
    """(name, node) for public top-level functions and classes and the
    public methods of those classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, kinds[:2]) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def unreferenced_names():
    texts = {p: p.read_text() for d in SEARCHED for p in sorted((ROOT / d).rglob("*.py"))}
    words = Counter(w for text in texts.values() for w in WORD.findall(text))
    dead = []
    for path in sorted((ROOT / "src" / "catmeas").glob("*.py")):
        lines = texts[path].splitlines()
        for qualname, node in public_definitions(ast.parse(texts[path])):
            own = "\n".join(lines[node.lineno - 1:node.end_lineno])
            if words[node.name] == WORD.findall(own).count(node.name):
                dead.append(f"{path.stem}.{qualname} ({path.name}:{node.lineno})")
    return dead


def test_every_public_name_is_referenced():
    assert unreferenced_names() == []

