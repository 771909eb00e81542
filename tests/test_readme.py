"""README's commands, config files and references against the program they
describe.

Every ``sopac`` line in a fenced code block (``\\`` continuations joined) must
parse with ``cli.build_parser()``, every JSON block must be a valid
``RunConfig``, every backticked ``<module>.<name>`` must name an attribute of
that ``sopac`` module, and every ``tests/<file>.py::<Name>`` must name a class
or function of that file, so a renamed flag, field or name fails here instead
of in a reader's shell.
"""

import functools
import importlib
import json
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import sopac
from sopac import cli
from sopac.harness import RunConfig

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
MODULES = [m.name for m in pkgutil.iter_modules(sopac.__path__)]


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


def test_every_readme_module_reference_resolves():
    pattern = rf"`(?:sopac\.)?({'|'.join(MODULES)})\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)"
    references = set(re.findall(pattern, README.read_text()))
    assert len(references) >= 8
    for module, name in sorted(references):
        try:
            functools.reduce(getattr, name.split("."), importlib.import_module(f"sopac.{module}"))
        except AttributeError:
            pytest.fail(f"README names `{module}.{name}`, which sopac.{module} does not define")


def test_every_readme_test_reference_resolves():
    references = set(re.findall(r"tests/(\w+\.py)::(\w+)", README.read_text()))
    assert len(references) >= 8
    for file, name in sorted(references):
        source = (ROOT / "tests" / file).read_text()
        assert re.search(rf"^\s*(?:class|def) {name}\b", source, re.M), (
            f"README names tests/{file}::{name}, which that file does not define")
