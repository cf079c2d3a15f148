"""Count the code lines of the mzphase package.

A line counts when it holds a token other than a comment, a newline or
indentation, and is not part of a module, class or function docstring.
Blank lines, comment-only lines and docstrings are therefore left out.
Prints each module's count and the total:

    python3 tools/count_code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to the repository's src/mzphase.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NEWLINE,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source):
    """The line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCSTRING_OWNERS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count_code_lines(path):
    """The number of code lines in one Python source file."""
    source = Path(path).read_text()
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main():
    default = Path(__file__).resolve().parent.parent / "src" / "mzphase"
    package = Path(sys.argv[1]) if len(sys.argv) > 1 else default
    total = 0
    for path in sorted(package.glob("*.py")):
        count = count_code_lines(path)
        total += count
        print(f"{path.name:20s} {count:5d}")
    print(f"{'total':20s} {total:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
