"""The library reads a (co)presheaf's structure maps in one place.

`shcosh._walk` asks a closed form for any map and composes assembled
input's cover maps along a chain, so a closed form keeps none of its maps.
That holds only while nothing else reads them: in `src/catmeas`, an
attribute read of `.maps` may occur only in `_walk`, in
`_validate_functorial`, which checks the raw input it is given, and in the
`cover_maps` property, whose fresh dict of `_walk`'s answers for a closed
form no library code reads (`.cover_maps` is read nowhere there).  Writes
(the constructor's store) and local names are not reads.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
READERS = {"_walk", "_validate_functorial", "cover_maps"}


class _AttributeReads(ast.NodeVisitor):
    """(line, innermost enclosing function or None) of each load of `attr`."""

    def __init__(self, attr: str):
        self.attr, self.scopes, self.found = attr, [None], []

    def visit_FunctionDef(self, node):
        self.scopes.append(node.name)
        self.generic_visit(node)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        if node.attr == self.attr and isinstance(node.ctx, ast.Load):
            self.found.append((node.lineno, self.scopes[-1]))
        self.generic_visit(node)


def attribute_reads(attr: str):
    """{(module file name, line): enclosing function} over `src/catmeas`."""
    out = {}
    for path in sorted((ROOT / "src" / "catmeas").glob("*.py")):
        reads = _AttributeReads(attr)
        reads.visit(ast.parse(path.read_text()))
        out.update(((path.name, line), scope) for line, scope in reads.found)
    return out


def test_only_walk_and_the_validator_read_cover_maps():
    reads = attribute_reads("maps")
    assert {where: scope for where, scope in reads.items() if scope not in READERS} == {}
    # every reader is found, so a renamed attribute cannot pass unseen
    assert set(reads.values()) == READERS
    assert attribute_reads("cover_maps") == {}
