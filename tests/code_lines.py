"""Count the code lines of the package's modules.

A line counts when some token other than a comment starts or runs on it,
and it is not part of a docstring (the string statement that opens a module,
class or function).  Blank lines, comment lines and docstrings are left out;
a string or bracket that spans lines counts each line it covers.

Run as ``python3 tests/code_lines.py [SRC]``.  It prints one line per module
under ``SRC`` (default: this checkout's ``src``) and the total.
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    total = 0
    for path in sorted(src.rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print("%6d  %s" % (count, path.relative_to(src)))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
