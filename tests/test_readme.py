"""The examples of ``README.md``: its ``python`` blocks, run in order in one
namespace as a reader would paste them, and the ``$ bihom ...`` transcript
of its ``sh`` block, run as cold CLI processes on the ``json`` document
before it, so that the documented API and CLI stay the real ones.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import bihom

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)
TRANSCRIPT = re.compile(r"^```json\n(.*?)^```\n\n```sh\n(\$ bihom .*?)^```$",
                        re.MULTILINE | re.DOTALL)


def test_python_blocks_run_in_order(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = list(BLOCK.finditer(text))
    assert len(blocks) >= 3
    namespace = {"__name__": "readme"}
    for block in blocks:
        # padded so that a traceback names the README's own line numbers
        source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(source, str(README), "exec"), namespace)
    assert "CohomologyReport(degree=1" in capsys.readouterr().out


def test_cli_transcript(tmp_path):
    match = TRANSCRIPT.search(README.read_text(encoding="utf-8"))
    document, transcript = match.groups()
    # the document is the first file the transcript names
    name = re.search(r"\S+\.json", transcript).group()
    (tmp_path / name).write_text(document, encoding="utf-8")
    runs = re.findall(r"^\$ (.*)\n((?:[^$].*\n)*)", transcript, re.MULTILINE)
    assert len(runs) == 2
    src = str(Path(bihom.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    for command, printed in runs:
        argv = shlex.split(command)
        assert argv[0] == "bihom"
        out = subprocess.run([sys.executable, "-m", "bihom.cli", *argv[1:]],
                             cwd=tmp_path, env=env, capture_output=True,
                             text=True)
        assert (out.returncode, out.stdout, out.stderr) == (0, printed, ""), \
            command
