"""The README's examples run and print what it shows.

The README is read next to this directory; castleqec is whichever package
imports.  Run from outside the checkout with no PYTHONPATH, this checks the
installed package.
"""

import re
from pathlib import Path

import pytest

import castleqec
from castleqec import cli
from castleqec.codes import DEFAULT_BUDGET

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```", (ROOT / "README.md").read_text(), flags=re.M | re.S)


def cli_examples():
    """(command, shown lines) for each `$ castleqec ...` line the README follows with output."""
    examples = []
    for lang, body in BLOCKS:
        if lang != "sh":
            continue
        current = None
        for line in body.splitlines():
            if line.startswith("$ "):
                current = (line[2:], [])
                examples.append(current)
            elif current is not None:
                current[1].append(line)
    return [(command, lines) for command, lines in examples if command.startswith("castleqec ") and lines]


EXAMPLES = cli_examples()


def test_the_readme_shows_output_for_every_command():
    assert {command.split()[1] for command, _ in EXAMPLES} == {"build", "scan", "reproduce", "gv"}


@pytest.mark.parametrize("command,lines", EXAMPLES, ids=[re.sub(r"\W+", "-", c) for c, _ in EXAMPLES])
def test_cli_example(command, lines, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the examples name curve files relative to the checkout
    monkeypatch.delenv("CASTLEQEC_BUDGET", raising=False)
    assert cli.main(command.split()[1:]) == 0
    captured = capsys.readouterr()
    got = (captured.err + captured.out).splitlines()  # reproduce's summary on stderr comes first
    if lines[-1] == "...":  # only the first lines are shown
        lines = lines[:-1]
        got = got[: len(lines)]
    assert got == lines


def test_python_examples_print_what_their_comments_show(capsys, monkeypatch):
    # a block sets its own budget; monkeypatch restores the environment afterwards
    monkeypatch.setenv("CASTLEQEC_BUDGET", str(DEFAULT_BUDGET))
    blocks = [body for lang, body in BLOCKS if lang == "python"]
    assert blocks
    namespace = {}
    for body in blocks:  # in order: a later block uses the names of an earlier one
        (comment,) = [line.split("# ", 1)[1] for line in body.splitlines() if line.startswith(("print(", "    print("))]
        exec(compile(body, "README.md", "exec"), namespace)
        got = capsys.readouterr().out.splitlines()
        want = comment.removesuffix(", ...").split(", then ")
        assert (got[: len(want)] if comment.endswith(", ...") else got) == want


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from castleqec import *", namespace)
    assert [name for name in castleqec.__all__ if name not in namespace] == []
