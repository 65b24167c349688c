"""Total lines and code lines of src/sphtrans/*.py, in the working tree or at a git rev.

    python3 tools/src_lines.py [REV]

The first line gives the totals; one line per module follows, as a Markdown list item,
so that a CI job summary shows where lines moved.

A code line is a physical line that holds a token other than a comment: blank
lines, comment lines and docstrings (a string that is a statement of its own)
do not count, and a statement spread over several lines counts each of them.
Lines are counted with ``tokenize``, so a string that spans lines counts each
line it spans unless it is a docstring.
"""

from __future__ import annotations

import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = "src/sphtrans"
# tokens that hold no code, besides comments and the ends of blank lines
LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code, docstrings excluded."""
    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            continue
        # a string that opens a logical line and ends it is a docstring
        starts = i == 0 or tokens[i - 1].type in (tokenize.NEWLINE, tokenize.INDENT,
                                                  tokenize.DEDENT)
        if (tok.type == tokenize.STRING and starts and i + 1 < len(tokens)
                and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def sources(rev: str | None) -> dict[str, str]:
    """The text of each src/sphtrans/*.py by file name: at ``rev``, or in the working tree."""
    if rev is None:
        return {p.name: p.read_text() for p in sorted((ROOT / SRC).glob("*.py"))}
    git = ["git", "-C", str(ROOT)]
    names = subprocess.run(git + ["ls-tree", "--name-only", rev, SRC + "/"], check=True,
                           capture_output=True, text=True).stdout.split()
    return {Path(name).name: subprocess.run(git + ["show", f"{rev}:{name}"], check=True,
                                            capture_output=True, text=True).stdout
            for name in names if name.endswith(".py")}


def module_counts(rev: str | None = None) -> dict[str, tuple[int, int]]:
    """(total lines, code lines) of each src/sphtrans/*.py by file name."""
    return {name: (len(text.splitlines()), code_lines(text))
            for name, text in sources(rev).items()}


def count(rev: str | None = None) -> tuple[int, int]:
    """(total lines, code lines) of src/sphtrans/*.py."""
    modules = module_counts(rev).values()
    return sum(total for total, _ in modules), sum(code for _, code in modules)


def main(argv: list[str]) -> None:
    rev = argv[0] if argv else None
    modules = module_counts(rev)
    total, code = (sum(column) for column in zip(*modules.values()))
    print(f"{SRC}/*.py{'' if rev is None else ' at ' + rev}: {total} lines, {code} code lines")
    for name, (module_total, module_code) in modules.items():  # a Markdown list in a CI summary
        print(f"- {name}: {module_total} lines, {module_code} code lines")


if __name__ == "__main__":
    main(sys.argv[1:])
