"""README's examples, run as written.

Every `qfeedback ...` line of README's `sh` blocks goes through cli.main in
a fresh directory (continuation lines joined) and must exit 0, or 2 where
the line says `# exits 2`.  The `ini` block is the `jobs.ini` of the
`campaign` line, and the `python` block is executed as is.
"""

import re
import shlex
from pathlib import Path

import pytest

from qfeedback.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def command_lines():
    lines = []
    for block in blocks("sh"):
        for line in re.sub(r"\s*\\\n\s*", " ", block).splitlines():
            if line.startswith("qfeedback "):
                lines.append(line)
    return lines


COMMANDS = command_lines()


def test_readme_has_examples():
    assert len(COMMANDS) >= 6
    assert len(blocks("ini")) == 1
    assert len(blocks("python")) == 1


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_as_documented(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "jobs.ini").write_text(blocks("ini")[0], encoding="utf-8")
    expected = 2 if "# exits 2" in line else 0
    assert main(shlex.split(line, comments=True)[1:]) == expected


def test_readme_library_example_runs():
    exec(compile(blocks("python")[0], "README.md", "exec"), {})
