"""Every third-party import under ``src/repro`` is a declared dependency."""

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def imported_packages():
    """Top-level names of every absolute import in the ``repro`` sources."""
    names = set()
    for path in (REPO / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - {"repro"} - set(sys.stdlib_module_names)


def declared_dependencies():
    """``[project].dependencies`` from pyproject.toml, read without tomllib."""
    text = (REPO / "pyproject.toml").read_text()
    match = re.search(r"^dependencies\s*=\s*(\[[^\]]*\])", text, re.MULTILINE)
    assert match, "pyproject.toml declares no [project].dependencies"
    return {re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0] for dep in ast.literal_eval(match.group(1))}


def test_imports_match_declared_dependencies():
    assert imported_packages() == declared_dependencies()
