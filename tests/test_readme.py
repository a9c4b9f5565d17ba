"""The README's examples run: every ini block parses, the python blocks run in order.

Its ``[sweep]`` table says what the rows of ``experiments._MODES`` say.
"""

import re
from pathlib import Path

from magnon_battery import experiments, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_examples_run():
    configs, programs = _blocks("ini"), _blocks("python")
    assert configs and len(programs) >= 2
    for text in configs:
        parse_config(text)
    # later blocks use the names earlier ones import, as a reader's session would
    namespace = {}
    for program in programs:
        exec(compile(program, str(README), "exec"), namespace)


def test_readme_sweep_table_matches_the_mode_rows():
    # mode -> [sweep] keys read: the one copy of the rows outside the code
    text = README.read_text(encoding="utf-8")
    table = re.search(r"^\| mode \| `\[sweep\]` keys it reads \|\n\|[-|]+\|\n((?:\|.*\n)+)", text, re.M)
    read = {}
    for row in table.group(1).splitlines():
        modes, keys = row.strip("|").split("|")
        for mode in re.findall(r"`([^`]+)`", modes):
            read[mode] = set(re.findall(r"`([^`]+)`", keys))
    assert read == {mode: set(keys) for mode, (*_, keys) in experiments._MODES.items()}
