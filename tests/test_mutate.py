"""tools/mutate.py: every EQUIVALENT entry still names a line that holds
its operator, and ``sites`` finds the operators the tool swaps."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)


@pytest.mark.parametrize("key", list(mutate.EQUIVALENT), ids=lambda key: f"{key[0]}: {key[1]}")
def test_an_equivalent_mutant_names_a_site_of_its_module(key):
    # a stale entry, whose line was rewritten, fails here
    module, line, swap = key
    op, new = swap.split(" -> ")
    assert mutate.SWAPS[op] == new
    source = (ROOT / "src" / "distqc" / module).read_text()
    lines = source.splitlines()
    assert any(lines[row - 1].strip() == line and found == op for row, _, found in mutate.sites(source))


SOURCE = '''\
x = a < b
y = a * b
y += 1
s = f"{a + b}" + c
t = "é" + u
'''


def test_sites_finds_each_operator_at_its_character_column():
    # the + inside the f-string is left alone, and a column after "é", two
    # bytes in UTF-8, counts it as one character
    assert mutate.sites(SOURCE) == [(1, 6, "<"), (2, 6, "*"), (3, 2, "+="), (4, 15, "+"), (5, 8, "+")]
