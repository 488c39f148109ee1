"""The README's examples run: every ``ini`` block is a valid config, and the
``python`` blocks, executed in order in one namespace, form one session."""

import re
from pathlib import Path

import pytest

from graphspde.config import parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README,
                      flags=re.MULTILINE | re.DOTALL)


CONFIGS = _blocks("ini")


@pytest.mark.parametrize("block", CONFIGS,
                         ids=[f"ini{i}" for i in range(len(CONFIGS))])
def test_readme_config_blocks_parse(block):
    parse_config(block)


def test_readme_python_session_runs(capsys):
    blocks = _blocks("python")
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert "passed = true" in capsys.readouterr().out
