"""The example commands of ``README.md`` run as written.

Every line of a fenced code block in the README that passes ``--command``
is run through ``cli.main``, from ``--command`` on, with ``--out`` under the
test's directory.  Each exits 0, except ``verify``, which exits 1 while
``rectangle_axis_argmin_set`` is its one FAIL (ROADMAP item 5).
"""

import json
import os
import re
import shlex

import pytest

from anisolap import cli

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def example_commands() -> list[list[str]]:
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", fh.read(), flags=re.M | re.S)
    return [
        shlex.split(line[line.index("--command"):])
        for block in blocks
        for line in block.splitlines()
        if "--command" in line and not line.lstrip().startswith("#")
    ]


EXAMPLES = example_commands()


def test_readme_has_an_example_of_every_command():
    assert {argv[1] for argv in EXAMPLES} == set(cli._COMMANDS)


@pytest.mark.parametrize(
    "argv", EXAMPLES, ids=[f"{i}-{argv[1]}" for i, argv in enumerate(EXAMPLES)]
)
def test_readme_example_runs(tmp_path, argv):
    command = argv[1]
    rc = cli.main([*argv, "--out", str(tmp_path / "out")])
    if command != "verify":
        assert rc == 0
        return
    assert rc == 1
    with open(tmp_path / "out.json", encoding="utf-8") as fh:
        entries = json.load(fh)["payload"]["report"]["entries"]
    assert [e["name"] for e in entries if not e["passed"]] == ["rectangle_axis_argmin_set"]
