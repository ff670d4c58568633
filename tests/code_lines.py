"""Code lines per module of a package: non-blank, non-comment,
non-docstring lines, found with tokenize.

A line counts when it holds a token other than a comment, a line break,
an indent or dedent, or a string that is a statement of its own (a
docstring, or any bare string expression). The last line is the total.

Run from anywhere:

    python tests/code_lines.py            # src/cycloring
    python tests/code_lines.py bench      # any directory of modules

Not collected by pytest; it prints counts and checks nothing.
"""
from __future__ import annotations

import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines of one module."""
    with tokenize.open(path) as f:
        tokens = list(tokenize.generate_tokens(f.readline))
    lines = set()
    for k, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING:
            # a string that opens a logical line and ends it is a statement
            # of its own
            before = tokens[k - 1].type if k else tokenize.NEWLINE
            after = tokens[k + 1].type
            if (before in (tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
                           tokenize.DEDENT)
                    and after in (tokenize.NEWLINE, tokenize.ENDMARKER)):
                continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> None:
    top = Path(argv[0]) if argv else ROOT / "src" / "cycloring"
    total = 0
    for path in sorted(top.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.name:24} {n:5}")
    print(f"{'total':24} {total:5}")


if __name__ == "__main__":
    main(sys.argv[1:])
