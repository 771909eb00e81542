"""README's commands and config files against the program they describe.

Every ``sopac`` line in a fenced code block (``\\`` continuations joined) must
parse with ``cli.build_parser()``, and every JSON block must be a valid
``RunConfig``, so a renamed flag or field fails here instead of in a reader's
shell.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from sopac import cli
from sopac.harness import RunConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)


def readme_commands() -> list[str]:
    text = "\n".join(fenced_blocks("bash")).replace("\\\n", " ")
    return [line.strip() for line in text.splitlines() if line.strip().startswith("sopac ")]


def test_every_readme_command_parses():
    commands = readme_commands()
    assert len(commands) >= 14  # the CLI section's four and the comparisons' ten
    parser = cli.build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


def test_every_readme_config_file_is_valid():
    blocks = fenced_blocks("json")
    assert blocks
    for block in blocks:
        RunConfig.from_dict(json.loads(block))
