"""The package surface: what the oracles take from it, and what the README names on it."""

import ast
import re
from pathlib import Path

import pytest

import framesync

TESTS = Path(__file__).parent


def framesync_imports(path):
    """Every name a module imports from framesync or its submodules ('*' for a module import)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "framesync":
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {"*" for alias in node.names if alias.name.split(".")[0] == "framesync"}
    return names


@pytest.mark.parametrize(
    "oracle, allowed",
    [
        ("naive_trials.py", {"TrialConfig", "trial_rng", "CLASSES"}),
        ("exact_oracle.py", {"TrialConfig", "run_decoder"}),
        ("rayleigh_oracle.py", set()),
    ],
)
def test_oracles_take_only_their_inputs_from_framesync(oracle, allowed):
    # the naive reference samples, counts and classifies on its own; the exact oracle's
    # enumeration runs the production decoder against its own dynamic program
    assert framesync_imports(TESTS / oracle) <= allowed


def test_readme_names_exist():
    readme = (TESTS.parent / "README.md").read_text()
    names = set(re.findall(r"\bfs\.([A-Za-z_]\w*)", readme))
    assert names
    assert sorted(name for name in names if not hasattr(framesync, name)) == []
