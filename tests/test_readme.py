"""The Python examples of the README run as written."""

import json
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert blocks
    # one namespace: a later block uses the names an earlier one made
    namespace = {}
    for i, code in enumerate(blocks, 1):
        exec(compile(code, f"README.md, python block {i}", "exec"), namespace)
    # the quick start prints one decomposition as JSON
    assert json.loads(capsys.readouterr().out)["bands"]
