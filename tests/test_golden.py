"""The CLI's full reports against the committed golden files, byte for byte.

``tests/golden`` holds the output of ``verify --all``, ``verify
--adjudicate`` and ``identity --all``; a change to any closed form, route
or report line shows here as a diff of the whole report.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from restricted_words.cli import main

GOLDEN = Path(__file__).parent / "golden"


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
