"""The CLI's full reports against the committed golden files, byte for byte.

``tests/golden`` holds the output of ``verify --all``, ``verify
--adjudicate`` and ``identity --all``; a change to any closed form, route
or report line shows here as a diff of the whole report.
"""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from restricted_words.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def _workflow_commands() -> list[tuple[list[str], str | None]]:
    """(argv, golden file or None) for each ``restricted-words`` line of
    the CI workflow: the golden file is the one that the workflow's
    ``diff`` compares with the file the line's output is redirected to."""
    lines = [line.strip() for line in WORKFLOW.read_text(encoding="utf-8").splitlines()]
    golden = {}
    for line in lines:
        if line.startswith("diff "):
            _, ours, theirs = shlex.split(line)
            golden[ours] = theirs
    commands = []
    for line in lines:
        if line.startswith("restricted-words "):
            command, _, redirect = line.partition(">")
            target = "".join(shlex.split(redirect))
            commands.append((shlex.split(command)[1:], golden.get(target)))
    return commands


WORKFLOW_COMMANDS = _workflow_commands()


@pytest.mark.parametrize(
    "argv, name",
    [
        (("verify", "--all"), "verify_all.txt"),
        (("verify", "--adjudicate"), "verify_adjudicate.txt"),
        (("identity", "--all"), "identity_all.txt"),
    ],
    ids=["verify-all", "verify-adjudicate", "identity-all"],
)
def test_output_matches_golden_file(capsys, argv, name):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


def test_workflow_diffs_every_golden_file():
    # each golden file is diffed by the workflow, against the output of
    # one of its commands
    diffed = sorted(Path(name).name for _, name in WORKFLOW_COMMANDS if name)
    assert diffed == sorted(path.name for path in GOLDEN.iterdir())


@pytest.mark.parametrize(
    "argv, golden", WORKFLOW_COMMANDS, ids=[" ".join(a) for a, _ in WORKFLOW_COMMANDS]
)
def test_workflow_command(capsys, argv, golden):
    # the workflow's own commands, run in process: each exits 0, and each
    # output that the workflow diffs equals its golden file byte for byte
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    if golden is not None:
        assert out.encode("utf-8") == (ROOT / golden).read_bytes()
