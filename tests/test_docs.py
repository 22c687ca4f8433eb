"""The README's library example and the package's list of public names."""

import re
import types
from pathlib import Path

import symchains

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out == "(0,2,0,0,3,1,1,0,0,3,1)\n"


def test_all_is_the_public_package():
    # The package binds a name on its first read, so the names come from
    # dir() and each is resolved here.
    public = {name for name in dir(symchains)
              if not name.startswith("_") and not isinstance(getattr(symchains, name), types.ModuleType)}
    assert len(symchains.__all__) == len(set(symchains.__all__))
    assert set(symchains.__all__) == public
