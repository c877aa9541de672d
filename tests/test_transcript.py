"""Command-line sessions replay byte for byte from a recorded transcript.

``transcript.json`` holds, for each step of each session below, the argv,
the exit code, stdout and stderr verbatim, and the sha256 of the session
file after the step.  A change that means to alter this output records the
transcript again, from the repository root, with

    PYTHONPATH=src python tests/test_transcript.py
"""

from __future__ import annotations

import io
import json
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from hashlib import sha256
from pathlib import Path

from womcode import cli

TRANSCRIPT = Path(__file__).resolve().with_name("transcript.json")

# (plan flags, cardinalities): the paper's ten 56-bit writes, two 56-bit
# writes at m = 3, wide symbols with unequal cardinalities, and a code of
# one write.
CODES = [
    ("--m 2 --bits 56 --writes 10", [2**56] * 10),
    ("--m 3 --bits 56 --writes 2", [2**56] * 2),
    ("--m 9 --v 3,100,1000", [3, 100, 1000]),
    ("--v 5", [5]),
]


def steps():
    """The argv of every step: per code and output format, plan --file,
    t x (write, read), erase-status and one write too many.  No message is
    0, so no first write is a free one and every write advances."""
    rng = random.Random(14)
    for i, (flags, v) in enumerate(CODES):
        for fmt in ("text", "machine"):
            file, tail = f"session{i}-{fmt}.wom", ["--format", fmt]
            yield ["plan", *flags.split(), "--file", file, *tail]
            for vg in v:
                yield ["write", "--file", file, str(rng.randrange(1, vg)), *tail]
                yield ["read", "--file", file, *tail]
            yield ["erase-status", "--file", file, *tail]
            yield ["write", "--file", file, "0", *tail]


def run(argv):
    """One step as the transcript records it; the session file is named by
    the argv and read from the working directory."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    session = Path(argv[argv.index("--file") + 1]).read_bytes()
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "sha256": sha256(session).hexdigest(),
    }


def test_cli_sessions_replay_the_transcript(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    recorded = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    assert [step["argv"] for step in recorded] == list(steps())
    for step in recorded:
        assert run(step["argv"]) == step


if __name__ == "__main__":
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        transcript = [run(argv) for argv in steps()]
        os.chdir(home)
    TRANSCRIPT.write_text(json.dumps(transcript, indent=1) + "\n", encoding="utf-8")
