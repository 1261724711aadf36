import importlib.util
import re
import shlex
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_workloads():
    """perfbench/workloads.py as a module, loaded once."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[name]


def readme_command_lines() -> list[list[str]]:
    """The argv of every example in the README's command-line block."""
    readme = (REPO_ROOT / "README.md").read_text()
    block = re.search(r"## Command line.*?```sh\n(.*?)```", readme, re.S).group(1)
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("chardeg ")
    ]


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return REPO_ROOT / "data"
