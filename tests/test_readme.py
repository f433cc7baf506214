"""README's library quickstart runs as printed."""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_quickstart_prints_what_its_comments_say():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", block], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out.count("(2, 5, 3)") == 2
    assert out[-1].endswith("PASS")
