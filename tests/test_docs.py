"""The README and the CLI docstring stay in step with the code."""

import re
from pathlib import Path

import posetkit.cli
from posetkit.checks import PROPERTIES

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _exit_code_paragraph(text):
    start = text.index("Exit codes:")
    end = text.find("\n\n", start)
    return " ".join(text[start:end if end != -1 else None].split())


def test_readme_lists_the_registered_properties_in_order():
    block = re.search(r"registered property\s+names.*?```\n(.*?)```", README, re.S)
    assert block is not None
    assert block.group(1).split() == list(PROPERTIES)


def test_exit_codes_are_documented_zero_through_five():
    for source in (README, posetkit.cli.__doc__):
        paragraph = _exit_code_paragraph(source)
        codes = re.findall(r"(?<![\w.-])(\d)(?![\w.-])", paragraph)
        assert sorted(set(codes)) == ["0", "1", "2", "3", "4", "5"], paragraph
        # 4 is in use, not held back for later
        assert re.search(r"\b4\b[^,;]*internal", paragraph), paragraph
        assert "reserved" not in paragraph, paragraph
