"""The README's code runs as written, and the package's public names exist."""

import os
import re

import mtgee

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_readme_python_blocks_run():
    # later blocks use names the earlier ones define, so share one namespace
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), flags=re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k + 1}", "exec"), namespace)


def test_every_public_name_resolves():
    missing = [name for name in mtgee.__all__ if not hasattr(mtgee, name)]
    assert missing == []
