"""Configuration for the invariant linter.

Read from the ``[tool.repro.analysis]`` table of ``pyproject.toml``::

    [tool.repro.analysis]
    paths = ["src"]
    exclude = ["*/_vendored/*"]
    disable = []
    kernel-globs = ["*/greens/*.py", "*/swm/*.py"]
    wire-globs = ["*/service/wire.py", "*/engine/results.py"]
    telemetry-globs = ["*/engine/*.py", "*/swm/*.py", "*/service/*.py"]
    lock-attr = "_lock"

Every key is optional; table keys may use dashes or underscores. On
interpreters without :mod:`tomllib` (Python 3.10) a minimal fallback
parser handles exactly this subset (one table, string and
list-of-string values), so configuration behaves identically across
the CI matrix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..errors import ConfigurationError

_SECTION = "tool.repro.analysis"


@dataclass(frozen=True)
class AnalysisConfig:
    """Resolved linter configuration (defaults match this repo)."""

    #: Paths scanned when the CLI gets no positional arguments.
    paths: tuple[str, ...] = ("src",)
    #: fnmatch globs (posix paths) excluded from the scan.
    exclude: tuple[str, ...] = ()
    #: Rule IDs disabled wholesale.
    disable: tuple[str, ...] = ()
    #: Modules subject to the kernel-numerics rules (RPR002, RPR010).
    kernel_globs: tuple[str, ...] = ("*/greens/*.py", "*/swm/*.py")
    #: Modules carrying the wire format (RPR004, RPR009).
    wire_globs: tuple[str, ...] = ("*/service/wire.py",
                                   "*/engine/results.py")
    #: Modules whose instrumentation must be a no-op when telemetry is
    #: disabled (RPR008).
    telemetry_globs: tuple[str, ...] = ("*/engine/*.py", "*/swm/*.py",
                                        "*/service/*.py")
    #: Attribute name of the lock guarding ``*_locked`` methods.
    lock_attr: str = "_lock"


def _coerce(key: str, value: object) -> object:
    if key in ("lock_attr",):
        if not isinstance(value, str) or not value:
            raise ConfigurationError(
                f"[{_SECTION}] {key} must be a non-empty string, "
                f"got {value!r}"
            )
        return value
    if not isinstance(value, (list, tuple)) or not all(
            isinstance(v, str) for v in value):
        raise ConfigurationError(
            f"[{_SECTION}] {key} must be a list of strings, got {value!r}"
        )
    return tuple(value)


def config_from_mapping(table: dict) -> AnalysisConfig:
    """Build a config from a raw ``[tool.repro.analysis]`` table."""
    cfg = AnalysisConfig()
    updates = {}
    for raw_key, value in table.items():
        key = raw_key.replace("-", "_")
        if key not in AnalysisConfig.__dataclass_fields__:
            raise ConfigurationError(
                f"[{_SECTION}] unknown key {raw_key!r} (known: "
                f"{sorted(k.replace('_', '-') for k in AnalysisConfig.__dataclass_fields__)})"
            )
        updates[key] = _coerce(key, value)
    return replace(cfg, **updates)


# ----------------------------------------------------------------------
# pyproject.toml loading
# ----------------------------------------------------------------------

_KEY_RE = re.compile(r"^\s*([\w-]+)\s*=\s*(.+?)\s*$")
_STR_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')


def _parse_minimal_toml(text: str) -> dict:
    """Extract ``[tool.repro.analysis]`` without :mod:`tomllib`.

    Handles exactly the subset this config uses: a flat table of
    ``key = "string"`` and ``key = ["a", "b"]`` entries (lists may span
    lines). Anything fancier should run on Python 3.11+.
    """
    table: dict = {}
    in_section = False
    pending_key: str | None = None
    pending_items: list[str] = []
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip() if not _STR_RE.search(
            line) else line.strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            in_section = stripped == f"[{_SECTION}]"
            pending_key = None
            continue
        if not in_section:
            continue
        if pending_key is not None:
            pending_items.extend(_STR_RE.findall(stripped))
            if "]" in stripped:
                table[pending_key] = list(pending_items)
                pending_key = None
            continue
        m = _KEY_RE.match(stripped)
        if m is None:
            continue
        key, rhs = m.group(1), m.group(2)
        if rhs.startswith("["):
            items = _STR_RE.findall(rhs)
            if "]" in rhs:
                table[key] = items
            else:
                pending_key, pending_items = key, items
        else:
            strings = _STR_RE.findall(rhs)
            if strings:
                table[key] = strings[0]
    return table


def _read_table(pyproject: Path) -> dict:
    text = pyproject.read_text(encoding="utf-8")
    try:
        import tomllib
    except ImportError:  # Python 3.10
        return _parse_minimal_toml(text)
    try:
        doc = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigurationError(f"{pyproject}: invalid TOML: {exc}") from exc
    table = doc
    for part in _SECTION.split("."):
        table = table.get(part)
        if not isinstance(table, dict):
            return {}
    return table


def find_pyproject(start: Path) -> Path | None:
    """Nearest ``pyproject.toml`` at or above ``start``."""
    start = start.resolve()
    for candidate in (start, *start.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_config(start: Path | str | None = None,
                pyproject: Path | str | None = None) -> AnalysisConfig:
    """Load the linter config for a project.

    ``pyproject`` names the file directly; otherwise the nearest
    ``pyproject.toml`` at or above ``start`` (default: cwd) is used.
    Returns the defaults when no file or no table is found.
    """
    if pyproject is not None:
        path = Path(pyproject)
        if not path.is_file():
            raise ConfigurationError(f"config file not found: {path}")
    else:
        path = find_pyproject(Path(start) if start is not None
                              else Path.cwd())
        if path is None:
            return AnalysisConfig()
    return config_from_mapping(_read_table(path))
