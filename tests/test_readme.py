"""Every ``curvedlattice`` command that README.md documents parses.

The commands are read from the ``sh`` blocks, with each ``\\`` continuation
joined, and parsed by the command's own argument parser (no numpy loads):
a flag that a command no longer offers fails here, not in a reader's shell.
"""

import re
import shlex
from pathlib import Path

import pytest

from curvedlattice.front import _build_parser

_README = Path(__file__).resolve().parent.parent / "README.md"


def _documented_commands() -> list[str]:
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", _README.read_text(), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0].strip()  # no README command quotes a '#'
            if line.startswith("curvedlattice "):
                commands.append(line)
    return commands


def test_the_readme_documents_commands():
    assert len(_documented_commands()) >= 6


@pytest.mark.parametrize("line", _documented_commands())
def test_a_readme_command_parses(line):
    argv = shlex.split(line)[1:]
    args = _build_parser().parse_args(argv)  # an unknown flag exits 2
    assert args.command == argv[0]
