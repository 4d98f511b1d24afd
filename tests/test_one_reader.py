"""The library reads a (co)presheaf's structure maps in one place.

`shcosh._walk` writes a block sum's maps from its layout and composes
every other one from the cover maps, so no library read fills a block
sum's `_BuiltOnRead` cover maps.  That holds only while nothing else reads
them: in `src/catmeas`, an attribute read of `.cover_maps` may occur only
in `_walk` and in `_validate_functorial`, which checks the raw input it is
given.  Writes (the constructor's store) and local names are not reads.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
READERS = {"_walk", "_validate_functorial"}


class _CoverMapReads(ast.NodeVisitor):
    """(line, innermost enclosing function or None) of each `.cover_maps` load."""

    def __init__(self):
        self.scopes, self.found = [None], []

    def visit_FunctionDef(self, node):
        self.scopes.append(node.name)
        self.generic_visit(node)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        if node.attr == "cover_maps" and isinstance(node.ctx, ast.Load):
            self.found.append((node.lineno, self.scopes[-1]))
        self.generic_visit(node)


def cover_map_reads():
    """{(module file name, line): enclosing function} over `src/catmeas`."""
    out = {}
    for path in sorted((ROOT / "src" / "catmeas").glob("*.py")):
        reads = _CoverMapReads()
        reads.visit(ast.parse(path.read_text()))
        out.update(((path.name, line), scope) for line, scope in reads.found)
    return out


def test_only_walk_and_the_validator_read_cover_maps():
    reads = cover_map_reads()
    assert {where: scope for where, scope in reads.items() if scope not in READERS} == {}
    # both readers are found, so a renamed attribute cannot pass unseen
    assert set(reads.values()) == READERS
