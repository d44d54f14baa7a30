"""A minimal offline lint pass approximating the CI ruff rules.

CI runs ``ruff check src tests benchmarks examples`` (rules E4/E7/E9/F/W,
see pyproject.toml); this script covers the high-signal subset —
unused imports (F401), redefinitions (F811), unused local assignments
(F841 for simple cases), ``==``/``!=`` against None/True/False (E711/
E712), bare excepts (E722), and trailing whitespace (W291/W293) — so the
tree can be kept lint-clean on machines without ruff installed.  As in
ruff, a problem is skipped when its line carries a bare ``# noqa`` or a
``# noqa:`` that lists its code.

Run:  python tools/check_lint.py [paths...]
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")

#: ruff's suppression comment: ``# noqa`` alone, or ``# noqa: F401, E711``.
_NOQA = re.compile(
    r"#\s*noqa(?::\s*(?P<codes>[A-Z]+[0-9]+(?:[,\s]+[A-Z]+[0-9]+)*))?",
    re.IGNORECASE,
)


def suppressed(line: str, code: str) -> bool:
    """Whether ``line`` carries a ``# noqa`` that covers ``code``."""
    match = _NOQA.search(line)
    if match is None:
        return False
    codes = match.group("codes")
    return codes is None or code in re.split(r"[,\s]+", codes.upper())


def iter_sources(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


class ImportUsage(ast.NodeVisitor):
    """Collect imported names and every name/attribute usage."""

    def __init__(self) -> None:
        self.imports: dict[str, int] = {}
        self.used: set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            self.imports[name] = node.lineno

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "__future__":
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            self.imports[alias.asname or alias.name] = node.lineno

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.used.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.generic_visit(node)


def check_file(path: Path) -> list[str]:
    problems: list[str] = []
    text = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as error:  # E9
        return [f"{path}:{error.lineno}: E999 {error.msg}"]
    lines = text.splitlines()

    def report(lineno: int, code: str, message: str) -> None:
        if not suppressed(lines[lineno - 1], code):
            problems.append(f"{path}:{lineno}: {code} {message}")

    usage = ImportUsage()
    usage.visit(tree)
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    if isinstance(node.value, (ast.List, ast.Tuple)):
                        exported = {
                            elt.value
                            for elt in node.value.elts
                            if isinstance(elt, ast.Constant)
                        }
    is_package_init = path.name == "__init__.py"
    for name, lineno in usage.imports.items():
        if name in usage.used or name in exported:
            continue
        if is_package_init:
            continue  # re-exports are the point of an __init__
        # A bare string use (doctest/typing) keeps this heuristic quiet.
        if f'"{name}"' in text or f"'{name}'" in text:
            continue
        report(lineno, "F401", f"'{name}' imported but unused")

    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for op, comparator in zip(node.ops, node.comparators):
                if not isinstance(comparator, ast.Constant):
                    continue
                if comparator.value is None and isinstance(
                    op, (ast.Eq, ast.NotEq)
                ):
                    report(node.lineno, "E711", "comparison to None")
                elif (
                    comparator.value is True or comparator.value is False
                ) and isinstance(op, (ast.Eq, ast.NotEq)):
                    report(node.lineno, "E712",
                           f"comparison to {comparator.value}")
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            report(node.lineno, "E722", "bare except")

    for lineno, line in enumerate(lines, start=1):
        if line != line.rstrip():
            report(lineno, "W291", "trailing whitespace")
    return problems


def main(argv: list[str]) -> int:
    files = iter_sources(argv or list(DEFAULT_PATHS))
    problems: list[str] = []
    for path in files:
        problems.extend(check_file(path))
    for problem in problems:
        print(problem)
    print(f"{len(files)} files checked, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
