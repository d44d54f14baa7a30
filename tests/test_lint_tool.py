"""``tools/check_lint.py``, the offline mirror of CI's ruff lint, skips
what ruff skips: a problem on a line whose ``# noqa`` covers its code."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_lint.py"


@pytest.fixture(scope="module")
def check_lint():
    spec = importlib.util.spec_from_file_location("check_lint", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("comment", [
    "  # noqa", "  # noqa: F401", "  # NOQA:F401", "  # noqa: E501, F401",
    "  # noqa: F401  (re-exported)",
])
def test_noqa_covering_the_code_silences_it(tmp_path, check_lint, comment):
    source = tmp_path / "mod.py"
    source.write_text(f"import json{comment}\n")
    assert check_lint.check_file(source) == []
    assert check_lint.main([str(source)]) == 0


@pytest.mark.parametrize("comment", ["", "  # noqa: E501", "  # no qa"])
def test_unused_import_is_still_reported(tmp_path, check_lint, comment):
    source = tmp_path / "mod.py"
    source.write_text(f"import json{comment}\n")
    assert check_lint.check_file(source) == [
        f"{source}:1: F401 'json' imported but unused"
    ]
    assert check_lint.main([str(source)]) == 1
