"""The paper's code-size accounting (section "Environment").

"Riot consists of approximately nine thousand lines of code, including
the shared low-level objects package (500 lines) and graphics package
(4000 lines)."  This reports our per-subsystem sizes next to the
paper's, to show the reproduction carries the same proportions of
substrate to tool.

Run as a script, it prints the line count of every ``src/repro``
package, physical (every line) and logical (lines that are not blank,
comment-only or part of a docstring), so "least code" is a number::

    python benchmarks/bench_code_size.py
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "repro"

PAPER = {
    "low-level objects (geometry)": 500,
    "graphics package": 4000,
    "riot editor + formats": 4500,
    "total": 9000,
}

OURS = {
    "low-level objects (geometry)": ["geometry"],
    "graphics package": ["graphics", "workstation"],
    "riot editor + formats": ["core", "cif", "sticks", "rest", "composition"],
}


def count_lines(packages: list[str]) -> int:
    total = 0
    for package in packages:
        for path in (SRC / package).rglob("*.py"):
            total += sum(1 for _ in path.open())
    return total


def _docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def logical_lines(source: str) -> int:
    """Lines holding code: not blank, not comment-only, not docstring."""
    skip = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    ignored = (
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENDMARKER,
    )
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in ignored:
            continue
        for line in range(token.start[0], token.end[0] + 1):
            if line not in skip:
                code.add(line)
    return len(code)


def package_sizes() -> dict[str, tuple[int, int]]:
    """package -> (physical, logical) lines, for every ``src/repro``
    package (top-level modules are grouped under ``(top level)``)."""
    sizes: dict[str, tuple[int, int]] = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).parts
        package = parts[0] if len(parts) > 1 else "(top level)"
        source = path.read_text(encoding="utf-8")
        physical, logical = sizes.get(package, (0, 0))
        sizes[package] = (
            physical + len(source.splitlines()),
            logical + logical_lines(source),
        )
    return sizes


def test_subsystem_sizes(benchmark, summary):
    sizes = benchmark(
        lambda: {name: count_lines(pkgs) for name, pkgs in OURS.items()}
    )
    total = sum(sizes.values())
    for name, measured in sizes.items():
        assert measured > 0
        summary.record(
            "code size",
            f"paper: {name} ~{PAPER[name]} lines of SIMULA",
            f"ours: {measured} lines of Python",
        )
    summary.record(
        "code size (total)",
        f"paper: ~{PAPER['total']} lines",
        f"ours: {total} lines (same order of magnitude, plus tests)",
    )
    # The proportions should hold: the graphics substrate dominates
    # the geometry substrate, and the tool proper dominates both.
    assert sizes["graphics package"] > sizes["low-level objects (geometry)"]
    assert sizes["riot editor + formats"] > sizes["graphics package"]


def test_logical_lines_skip_docstrings_comments_and_blanks():
    source = (
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "def f(x):\n"
        '    """Doc."""\n'
        "    return (x +  # trailing comment\n"
        "            1)\n"
    )
    assert logical_lines(source) == 3


def main() -> None:
    sizes = package_sizes()
    print(f"{'package':<16}{'physical':>10}{'logical':>10}")
    for package, (physical, logical) in sizes.items():
        print(f"{package:<16}{physical:>10}{logical:>10}")
    physical = sum(p for p, _ in sizes.values())
    logical = sum(lg for _, lg in sizes.values())
    print(f"{'total':<16}{physical:>10}{logical:>10}")


if __name__ == "__main__":
    main()
