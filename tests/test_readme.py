"""The ``python`` blocks of ``README.md``, run in order in one namespace as
a reader would paste them, so that the documented API stays the real one.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)


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
