"""Rules on the package's source text.

A module-level constant's comment says what the constant controls in at most
three lines and cites the ``CHANGES.md`` entry that measured it; the
measurements themselves live in ``CHANGES.md``.
"""

import ast
import io
import pathlib
import tokenize

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "anisolap").glob("*.py"))


def constant_comment_blocks(src: str) -> dict[str, int]:
    """The number of whole-line comment lines directly above each module-level
    assignment of ``src``, keyed by its first target's source text."""
    lines = src.splitlines()
    comment = {
        t.start[0]
        for t in tokenize.generate_tokens(io.StringIO(src).readline)
        if t.type == tokenize.COMMENT and not lines[t.start[0] - 1][: t.start[1]].strip()
    }
    blocks = {}
    for node in ast.parse(src).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            above = node.lineno - 1
            while above in comment:
                above -= 1
            blocks[ast.unparse(target)] = node.lineno - 1 - above
    return blocks


def test_comment_blocks_are_counted():
    src = "# one\n# two\nA = 1\n\n# three\n\nB: int = 2\n# four\nC, D = 3, 4  # trailing\n"
    assert constant_comment_blocks(src) == {"A": 2, "B": 0, "(C, D)": 1}


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_constant_comments_are_at_most_3_lines(path):
    blocks = constant_comment_blocks(path.read_text(encoding="utf-8"))
    assert {name: n for name, n in blocks.items() if n > 3} == {}
