"""Tests for ``scripts/check_docs.py``, the checker the CI docs job runs.

The script is loaded from its path (``scripts/`` is not a package), fresh for
each test.  Each check runs once on the real repository and then on a small
fake tree under ``tmp_path``: the module's path constants are pointed at it,
so both directions of every check are pinned without touching the real docs.

The fake ``REPRO_*`` names only ever appear inside larger strings here, never
as a whole string literal, so this file cannot itself back a row of the real
environment table.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_docs.py"

ENV_DOC = """\
| Flag | Default | Effect |
|---|---|---|
| `--cache-dir DIR` | off | cache root (also `$REPRO_PROSE_ONLY`) |

| Variable | Effect |
|---|---|
{rows}
"""


@pytest.fixture()
def check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def fake_tree(tmp_path, check_docs, monkeypatch):
    """Write a fake env table, ``src/`` and ``tests/``; point the checker there."""

    def write(rows: str, src: str, tests: str = "") -> None:
        doc = tmp_path / "cli.md"
        doc.write_text(ENV_DOC.format(rows=rows))
        for name, text in (("src", src), ("tests", tests)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "mod.py").write_text(text)
        monkeypatch.setattr(check_docs, "CLI_DOC", doc)
        monkeypatch.setattr(check_docs, "SRC_DIR", tmp_path / "src")
        monkeypatch.setattr(check_docs, "TESTS_DIR", tmp_path / "tests")

    return write


def test_repository_docs_pass(check_docs, capsys):
    assert check_docs.main() == 0, capsys.readouterr().out
    assert "env vars consistent" in capsys.readouterr().out


def test_env_row_that_nothing_names_is_reported(check_docs, fake_tree):
    fake_tree(
        rows="| `REPRO_KEPT` | read |\n| `REPRO_GONE` | deleted knob |",
        src="import os\nos.environ.get('REPRO_KEPT')\n",
    )
    problems = check_docs.check_env_vars()
    assert len(problems) == 1
    assert "documents REPRO_GONE" in problems[0]


def test_src_literal_without_row_is_reported(check_docs, fake_tree):
    fake_tree(
        rows="| `REPRO_KEPT` | read |",
        src="import os\nos.environ.get('REPRO_KEPT')\nos.environ.get('REPRO_NEW')\n",
    )
    problems = check_docs.check_env_vars()
    assert len(problems) == 1
    assert "src/ names REPRO_NEW" in problems[0]


def test_tests_literal_backs_a_row_but_needs_none(check_docs, fake_tree):
    """A row read only by a test is documented; a tests-only name need not be."""
    fake_tree(
        rows="| `REPRO_SEED` | test schedule seed |",
        src="",
        tests="import os\nos.environ.get('REPRO_SEED')\nENV = {'REPRO_LOCAL': '1'}\n",
    )
    assert check_docs.check_env_vars() == []


def test_only_whole_literals_and_table_rows_count(check_docs, fake_tree):
    """Comments, prose in docstrings and mentions outside a row's first
    column are neither read names nor documented ones."""
    fake_tree(
        rows="| `REPRO_KEPT` | read; see also REPRO_IN_CELL |",
        src=(
            '"""Set REPRO_IN_DOCSTRING to change nothing."""\n'
            "import os\n"
            "# os.environ.get('REPRO_IN_COMMENT')\n"
            "os.environ.get('REPRO_KEPT')\n"
            "prefix = 'REPRO_'\n"
        ),
    )
    assert check_docs.documented_env_vars() == {"REPRO_KEPT"}
    assert check_docs.check_env_vars() == []


def test_flag_check_reports_both_directions(tmp_path, check_docs, monkeypatch):
    doc = tmp_path / "cli.md"
    doc.write_text("Use `--jobs N` or `--gone`; `pre--fix` is not a flag.\n")
    source = tmp_path / "cli.py"
    source.write_text(
        'parser.add_argument("--jobs", type=int)\n'
        'parser.add_argument("--new-flag", action="store_true")\n'
    )
    monkeypatch.setattr(check_docs, "CLI_DOC", doc)
    monkeypatch.setattr(check_docs, "CLI_SOURCE", source)
    problems = check_docs.check_cli_flags()
    assert len(problems) == 2
    assert "documents --gone" in problems[0]
    assert "defines --new-flag" in problems[1]


def test_choice_sets_must_match_the_parser(tmp_path, check_docs, monkeypatch):
    """A literal ``choices=`` is read as is; a bare name is followed through
    its ``from ... import`` to the tuple that module assigns at top level."""
    doc = tmp_path / "cli.md"
    source = tmp_path / "cli.py"
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "__init__.py").write_text("")
    (tmp_path / "src" / "pkg" / "engines.py").write_text('ENGINES = ("auto", "native")\n')
    source.write_text(
        "from pkg.engines import ENGINES\n"
        'parser.add_argument("--engine", choices=ENGINES)\n'
        'parser.add_argument("--opt-level", type=int, choices=(0, 1, 2))\n'
        'parser.add_argument("--datasets", choices=available_datasets())\n'
    )
    monkeypatch.setattr(check_docs, "CLI_DOC", doc)
    monkeypatch.setattr(check_docs, "CLI_SOURCE", source)
    monkeypatch.setattr(check_docs, "SRC_DIR", tmp_path / "src")

    doc.write_text("| `--engine {auto,native}` | x |\n| `--opt-level {0,1,2}` | y |\n")
    assert check_docs.check_choices() == []

    doc.write_text("| `--engine {interp,codegen,native,auto}` | x |\n")
    assert check_docs.check_choices() == [
        "docs/cli.md lists --engine {auto,codegen,interp,native}, "
        "but src/repro/cli.py accepts {auto,native}"
    ]

    doc.write_text("| `--datasets {cardio}` | z |\n")
    (problem,) = check_docs.check_choices()
    assert "no choices= this check can read" in problem


def test_dead_relative_link_is_reported(tmp_path, check_docs, monkeypatch):
    (tmp_path / "there.md").write_text("")
    page = tmp_path / "page.md"
    page.write_text(
        "[ok](there.md#section) [web](https://example.org/x) [anchor](#top)\n"
        "![missing](img/missing.png)\n"
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    problems = check_docs.check_links([page, tmp_path / "absent.md"])
    assert problems == [
        "page.md:2: dead link -> img/missing.png",
        "absent.md: file missing",
    ]
