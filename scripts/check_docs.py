#!/usr/bin/env python
"""Documentation consistency checks (the CI docs job).

Four classes of rot this catches:

1. **Dead links** — every relative markdown link in ``README.md`` and
   ``docs/*.md`` must resolve to an existing file or directory (anchors
   are stripped; absolute ``http(s)://`` / ``mailto:`` links are skipped).
2. **Phantom flags** — every ``--flag`` mentioned in ``docs/cli.md`` must
   be defined in ``src/repro/cli.py``, and every flag ``cli.py`` defines
   must be documented in ``docs/cli.md``, so the CLI reference can never
   drift from the implementation in either direction.
3. **Phantom environment variables** — every ``REPRO_*`` name in the
   environment table of ``docs/cli.md`` must appear as a string literal
   under ``src/`` or ``tests/``, and every ``REPRO_*`` string literal under
   ``src/`` must have a row in that table.
4. **Stale choice sets** — every `` `--flag {a,b}` `` in ``docs/cli.md``
   must list exactly the ``choices=`` that flag's ``add_argument`` call in
   ``cli.py`` gives.  A literal is read as is; a bare name is followed
   through its ``from ... import`` to the literal that module assigns at
   top level.

Usage (from anywhere)::

    python scripts/check_docs.py

Exits non-zero listing every problem found.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Markdown files whose relative links must resolve.
LINKED_DOCS = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]

#: The flag reference and its implementation.
CLI_DOC = REPO_ROOT / "docs" / "cli.md"
CLI_SOURCE = REPO_ROOT / "src" / "repro" / "cli.py"

#: The Python trees searched for ``REPRO_*`` string literals.
SRC_DIR = REPO_ROOT / "src"
TESTS_DIR = REPO_ROOT / "tests"

#: ``[text](target)`` markdown links (images included via the leading ``!?``).
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
#: Long-option tokens (``--jobs``, ``--max-batch-size``, ...).
_FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9]*(?:-[a-z0-9]+)*")
#: Flag definitions inside add_argument calls.
_ARGDEF_RE = re.compile(r"add_argument\(\s*\"(--[a-z0-9-]+)\"")
#: A ``REPRO_*`` environment variable name.
_ENV_NAME_RE = re.compile(r"REPRO_[A-Z0-9_]+")
#: A row of the environment table: ``| `REPRO_X` | effect |``.
_ENV_ROW_RE = re.compile(r"^\|\s*`(REPRO_[A-Z0-9_]+)`\s*\|")
#: A flag documented with its choices: `` `--flag {a,b,c}` ``.
_CHOICES_RE = re.compile(r"`(--[a-z][a-z0-9-]*) \{([^}]*)\}`")


def check_links(paths: List[Path]) -> List[str]:
    """Every relative link target must exist on disk."""
    problems: List[str] = []
    for path in paths:
        if not path.is_file():
            problems.append(f"{path.relative_to(REPO_ROOT)}: file missing")
            continue
        for line_no, line in enumerate(path.read_text().splitlines(), start=1):
            for target in _LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                resolved = (path.parent / target.split("#", 1)[0]).resolve()
                if not resolved.exists():
                    problems.append(
                        f"{path.relative_to(REPO_ROOT)}:{line_no}: "
                        f"dead link -> {target}"
                    )
    return problems


def documented_flags() -> Set[str]:
    """Every long option mentioned anywhere in the CLI reference."""
    return set(_FLAG_RE.findall(CLI_DOC.read_text()))


def implemented_flags() -> Set[str]:
    """Every long option cli.py defines via add_argument."""
    return set(_ARGDEF_RE.findall(CLI_SOURCE.read_text()))


def check_cli_flags() -> List[str]:
    """The CLI reference and cli.py must agree on the flag set, both ways."""
    problems: List[str] = []
    documented = documented_flags()
    implemented = implemented_flags()
    for flag in sorted(documented - implemented):
        problems.append(
            f"docs/cli.md documents {flag}, but src/repro/cli.py does not "
            "define it"
        )
    for flag in sorted(implemented - documented):
        problems.append(
            f"src/repro/cli.py defines {flag}, but docs/cli.md does not "
            "document it"
        )
    return problems


def documented_env_vars() -> Set[str]:
    """Every ``REPRO_*`` name with a row in the CLI reference's env table."""
    rows = (_ENV_ROW_RE.match(line) for line in CLI_DOC.read_text().splitlines())
    return {row.group(1) for row in rows if row}


def env_var_literals(root: Path) -> Set[str]:
    """Every string literal under ``root`` that is a ``REPRO_*`` name."""
    return {
        node.value
        for path in root.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and _ENV_NAME_RE.fullmatch(node.value)
    }


def check_env_vars() -> List[str]:
    """The env table and the code must agree on the ``REPRO_*`` names, both ways."""
    problems: List[str] = []
    documented = documented_env_vars()
    read_by_src = env_var_literals(SRC_DIR)
    for name in sorted(documented - read_by_src - env_var_literals(TESTS_DIR)):
        problems.append(
            f"docs/cli.md documents {name}, but no string literal under "
            "src/ or tests/ names it"
        )
    for name in sorted(read_by_src - documented):
        problems.append(
            f"src/ names {name}, but the environment table of docs/cli.md "
            "has no row for it"
        )
    return problems


def documented_choices() -> List[Tuple[str, Set[str]]]:
    """``(flag, choices)`` for every `` `--flag {a,b}` `` in the CLI reference."""
    return [
        (flag, {choice.strip() for choice in choices.split(",")})
        for flag, choices in _CHOICES_RE.findall(CLI_DOC.read_text())
    ]


def module_literal(module: str, name: str) -> Optional[object]:
    """The literal a module under ``src/`` assigns to ``name`` at top level."""
    base = SRC_DIR.joinpath(*module.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            break
    else:
        return None
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(target, ast.Name) and target.id == name for target in targets):
            try:
                return ast.literal_eval(node.value)
            except ValueError:
                return None
    return None


def implemented_choices() -> Dict[str, Set[str]]:
    """``flag -> choices`` for every ``add_argument`` in cli.py whose
    ``choices=`` is a literal or an imported name bound to one."""
    tree = ast.parse(CLI_SOURCE.read_text(), filename=str(CLI_SOURCE))
    imported = {
        alias.asname or alias.name: (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    }
    found: Dict[str, Set[str]] = {}
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "add_argument"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            continue
        for keyword in node.keywords:
            if keyword.arg != "choices":
                continue
            value = keyword.value
            if isinstance(value, ast.Name) and value.id in imported:
                choices = module_literal(*imported[value.id])
            else:
                try:
                    choices = ast.literal_eval(value)
                except ValueError:
                    choices = None
            if choices is not None:
                found[node.args[0].value] = {str(choice) for choice in choices}
    return found


def check_choices() -> List[str]:
    """Every choice set the CLI reference lists must be the parser's."""
    problems: List[str] = []
    implemented = implemented_choices()
    for flag, documented in documented_choices():
        actual = implemented.get(flag)
        if actual is None:
            problems.append(
                f"docs/cli.md lists choices for {flag}, but src/repro/cli.py "
                "gives it no choices= this check can read"
            )
        elif documented != actual:
            problems.append(
                f"docs/cli.md lists {flag} {{{','.join(sorted(documented))}}}, "
                f"but src/repro/cli.py accepts {{{','.join(sorted(actual))}}}"
            )
    return problems


def main() -> int:
    problems = (
        check_links(LINKED_DOCS) + check_cli_flags() + check_env_vars() + check_choices()
    )
    if problems:
        print(f"{len(problems)} documentation problem(s):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    n_links = sum(
        len(_LINK_RE.findall(p.read_text())) for p in LINKED_DOCS if p.is_file()
    )
    print(
        f"docs OK: {len(LINKED_DOCS)} files, {n_links} links checked, "
        f"{len(implemented_flags())} CLI flags, "
        f"{len(documented_choices())} choice sets and "
        f"{len(documented_env_vars())} env vars consistent"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
