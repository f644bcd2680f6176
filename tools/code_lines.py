"""Count the code lines of Python files: lines that are not blank, not a
comment and not part of a docstring.

    python tools/code_lines.py [PATH ...]    # default: src/mpdag

A path may be a file or a directory (searched for ``*.py``).  Prints one
count per file and the total.  A docstring is a string literal that is a
statement on its own, wherever it stands; the lines it spans do not count.
Lines are found with :mod:`tokenize`, so a ``#`` inside a string is not a
comment and a continued statement counts every line it spans.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# tokens that carry no code; NEWLINE ends a statement
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """The number of code lines of one Python file."""
    with path.open("rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokens:
        if tok.type in LAYOUT:
            continue
        if tok.type != tokenize.NEWLINE:
            statement.append(tok)
            continue
        # a statement that is one string literal is a docstring
        if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
            for t in statement:
                lines.update(range(t.start[0], t.end[0] + 1))
        statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    files: list[Path] = []
    for arg in argv or ["src/mpdag"]:
        path = Path(arg)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
