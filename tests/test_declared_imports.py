"""Every third-party module the code imports is declared.

An environment built from ``pyproject.toml`` (the package plus its
``[test]`` extra) must be able to import everything under ``src/``,
``tests/`` and ``perfbench/``. This scans their top-level imports and
fails on any that is neither standard library, first party (``repro``
and perfbench's sibling modules) nor a declared requirement.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "perfbench")
FIRST_PARTY = {"repro"} | {p.stem for p in (ROOT / "perfbench").glob("*.py")}


def _normalize(name: str) -> str:
    return re.sub(r"[-.]+", "_", name).lower()


def _declared() -> set[str]:
    """Names of the requirements in ``[project] dependencies`` and every
    ``[project.optional-dependencies]`` group (a line scan, so it runs
    without ``tomllib`` on Python 3.10)."""
    names: set[str] = set()
    section, in_deps = None, False
    for raw in (ROOT / "pyproject.toml").read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        header = re.fullmatch(r"\[([\w.-]+)\]", line)
        if header:
            section, in_deps = header.group(1), False
            continue
        key = re.match(r"([\w-]+)\s*=", line)
        if section == "project" and key:
            in_deps = key.group(1) == "dependencies"
        if in_deps or section == "project.optional-dependencies":
            for req in re.findall(r'"([A-Za-z0-9][\w.-]*)', line):
                names.add(_normalize(req))
    return names


def _top_level_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_declared_requirements_parse():
    declared = _declared()
    assert {"numpy", "scipy", "pytest"} <= declared


def test_every_third_party_import_is_declared():
    declared = _declared()
    undeclared: dict[str, list[str]] = {}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for name in _top_level_imports(path):
                if (name in sys.stdlib_module_names or name in FIRST_PARTY
                        or _normalize(name) in declared):
                    continue
                undeclared.setdefault(name, []).append(
                    str(path.relative_to(ROOT)))
    assert not undeclared, (
        "third-party imports missing from pyproject.toml: "
        + "; ".join(f"{name} ({', '.join(sorted(set(files)))})"
                    for name, files in sorted(undeclared.items())))
