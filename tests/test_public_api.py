"""README's list of the public API is ``ppseg.__all__``, name for name,
and importing ppseg loads numpy alone of the scientific stack."""

import os
import re
import subprocess
import sys
from pathlib import Path

import ppseg

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_exactly_the_public_names():
    text = README.read_text(encoding="utf-8")
    head = re.search(r"The public API is the (\d+) names in `ppseg\.__all__`:\s*", text)
    assert head is not None
    # the list runs to the next blank line
    listed = re.findall(r"`([^`]+)`", text[head.end():].split("\n\n", 1)[0])
    assert int(head.group(1)) == len(ppseg.__all__)
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(ppseg.__all__)


def test_import_loads_no_scipy():
    # lgamma is ppseg's own port, so scipy stays a test dependency; a
    # fresh interpreter shows what the import itself loads
    code = ("import sys, ppseg, ppseg.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(ppseg.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
