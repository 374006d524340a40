"""Committed mutants: each entry breaks one guarded piece of src/ and names the tests that must fail.

`make mutants` (python3 tests/mutants.py) first runs every named test on an unmutated copy of the
checkout, where they must pass; then it applies each mutant to a fresh copy in a temporary
directory and runs only that mutant's tests there, with -x. A mutant is killed when they fail; the
run exits 1 if any mutant survives. Nothing is written under the checkout. test_mutants.py checks,
without running anything, that each old text occurs exactly once in its file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
NUMERIC = "tests/test_numeric_arguments.py"


class Mutant(NamedTuple):
    id: str
    file: str  # relative to the checkout
    old: str  # occurs exactly once in file
    new: str
    tests: tuple[str, ...]  # pytest node ids, at least one of which fails on the mutant


MUTANTS = (
    Mutant(
        "open-end-read-as-closed", "src/framesync/channels.py",
        'low = lo < x if ends[0] == "(" or lo == -math.inf else lo <= x',
        "low = lo <= x",
        (f"{NUMERIC}::TestRules::test_real_range",),
    ),
    Mutant(
        "real-keeps-its-float-type", "src/framesync/channels.py",
        "        x = float(value)\n",
        "        x = value\n",
        (f"{NUMERIC}::TestRules::test_real_returns_a_python_float",
         f"{NUMERIC}::TestFloat32GivesWhatItsFloatGives::test_on_off_fading_matrix"),
    ),
    Mutant(
        "real-accepts-a-bool", "src/framesync/channels.py",
        "if isinstance(value, bool) or not isinstance(value, numbers.Real):",
        "if not isinstance(value, numbers.Real):",
        (f"{NUMERIC}::TestRules::test_real_refuses_what_is_no_real_number",),
    ),
    Mutant(
        "real-overflows-past-a-double", "src/framesync/channels.py",
        "    try:\n        x = float(value)\n    except OverflowError:\n"
        "        x = math.inf if value > 0 else -math.inf\n",
        "    x = float(value)\n",
        (f"{NUMERIC}::TestRules::test_an_integer_past_a_double_reads_as_an_infinity",
         f"{NUMERIC}::TestSilentAnswersAreRefused::test_each_names_its_parameter"),
    ),
    Mutant(
        "integer-without-its-range", "src/framesync/channels.py",
        "return _within(name, int(value), lo, hi, ends, error)",
        "return int(value)",
        (f"{NUMERIC}::TestRules::test_integer_range",
         "tests/test_decoder.py::TestRunDecoder::test_scan_limit_below_one_rejected"),
    ),
    Mutant(
        "beta-read-after-the-word", "src/framesync/decoder.py",
        '        beta = _real("beta", beta, 0, 1, "()")  # refused before the word is built\n'
        "    word = sequences.build_sync_word(n, k)\n",
        "    word = sequences.build_sync_word(n, k)\n"
        "    if a is None:\n"
        '        beta = _real("beta", beta, 0, 1, "()")\n',
        ("tests/test_cli.py::TestSimulate::test_beta_is_refused_before_the_word_is_built",),
    ),
    Mutant(
        "pool-without-its-initializer", "src/framesync/decoder.py",
        ", initializer=_exit_on_interrupt) as pool:",
        ") as pool:",
        ("tests/test_cli.py::TestExitPolicy::test_sigint_to_the_pool_exits_130_without_a_child_traceback",),
    ),
)


def _pytest(tree: Path, tests) -> int:
    """pytest's exit code for tests run with -x in tree, its src/ first on the path."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                          cwd=tree, env=env, capture_output=True, text=True)
    return proc.returncode


def _copy(tmp: str) -> Path:
    """The checkout's working tree, its run records and caches left out, under tmp."""
    tree = Path(tmp) / "tree"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", ".perfbench", ".hypothesis", ".pytest_cache", "__pycache__"))
    return tree


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        every = sorted({test for mutant in MUTANTS for test in mutant.tests})
        if (code := _pytest(_copy(tmp), every)) != 0:
            print(f"the mutants' tests do not pass unmutated (pytest exit {code})")
            return 1
    survivors = []
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            path = (tree := _copy(tmp)) / mutant.file
            text = path.read_text()
            if (count := text.count(mutant.old)) != 1:
                raise SystemExit(f"{mutant.id}: its old text occurs {count} times in {mutant.file}")
            path.write_text(text.replace(mutant.old, mutant.new))
            killed = _pytest(tree, mutant.tests) == 1  # 1: tests failed; 2-5: interrupted or not collected
        print(f"{'killed' if killed else 'SURVIVED'}  {mutant.id}", flush=True)
        if not killed:
            survivors.append(mutant.id)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
