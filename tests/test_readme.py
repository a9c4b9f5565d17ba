"""The README's examples run: every ini block parses, the python blocks run in order."""

import re
from pathlib import Path

from magnon_battery import parse_config

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
