"""README's list of the public API is ``ppseg.__all__``, name for name."""

import re
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
