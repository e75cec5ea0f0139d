"""README's examples run as shown.

Every fenced block that opens with a ``$ weylunip ...`` line is run
through cli.main; it must exit 0 and print the lines the block shows,
whitespace normalised, where a ``...`` line stands for any run of lines.
The Python library block is executed.  The tier-1 workflow in
.github/workflows runs this file with the rest of the suite, so README
drift fails it.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

from weylunip import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)
COMMANDS = [body for lang, body in BLOCKS if body.startswith("$ weylunip ")]


def normalise(lines):
    return [" ".join(line.split()) for line in lines]


def test_readme_shows_the_examples_it_is_tested_on():
    shown = [body.splitlines()[0] for body in COMMANDS]
    assert shown == [
        "$ weylunip map --family BC --rank 2",
        "$ weylunip verify --family D --rank 2..4",
    ]


def test_readme_command_examples(capsys):
    for body in COMMANDS:
        command, *want = body.splitlines()
        assert cli.main(shlex.split(command)[2:]) == 0, command
        got = normalise(capsys.readouterr().out.splitlines())
        want = normalise(want)
        if "..." in want:
            cut = want.index("...")
            head, tail = want[:cut], want[cut + 1:]
            assert got[:cut] == head and got[len(got) - len(tail):] == tail, command
        else:
            assert got == want, command


def test_readme_library_block():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue()
