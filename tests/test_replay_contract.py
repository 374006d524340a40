"""The replay contract: `make reproduce` rebuilds out/ byte for byte, and trial streams stay fixed.

Each command of the Makefile's reproduce recipe runs in-process through
main() into a temporary directory, and its file must equal the committed one
in out/. The first doubles of a few per-trial streams are pinned as
float.hex strings, and one block's class counts beside them, so a change of
generator, keying or decision shows here by name, not only as a moved digit
in a table.
"""

import shlex
from pathlib import Path

import pytest

from framesync import TrialConfig, bsc, build_sync_word
from framesync.cli import main
from framesync.decoder import TrialEngine, trial_rng

ROOT = Path(__file__).parent.parent


def reproduce_commands() -> list[list[str]]:
    """framesync.cli arguments of each command in the Makefile's reproduce recipe, with $(OUT) kept."""
    recipe = (ROOT / "Makefile").read_text().split("\nreproduce:\n", 1)[1].split("\n\n", 1)[0]
    commands = [shlex.split(line) for line in recipe.splitlines() if "framesync.cli" in line]
    return [argv[argv.index("framesync.cli") + 1 :] for argv in commands]


COMMANDS = reproduce_commands()


def test_recipe_has_every_committed_output():
    outputs = sorted(Path(argv[argv.index("--out") + 1]).name for argv in COMMANDS)
    assert outputs == sorted(path.name for path in (ROOT / "out").iterdir())


@pytest.mark.parametrize("argv", COMMANDS, ids=[Path(argv[-1]).name for argv in COMMANDS])
def test_reproduce_command_rebuilds_its_output(argv, tmp_path, capsys):
    argv = [arg.replace("$(OUT)", str(tmp_path)) for arg in argv]
    assert main(argv) == 0
    path = Path(argv[argv.index("--out") + 1])
    assert path.read_bytes() == (ROOT / "out" / path.name).read_bytes()


# the first three doubles of trial_rng(20250807, i)
TRIAL_STREAMS = {
    0: ["0x1.012eea3c13a30p-5", "0x1.08ca5c6e9e679p-1", "0x1.735f0e969a4fap-2"],
    1: ["0x1.adc6ef5169f7cp-1", "0x1.e0184bdda9c68p-3", "0x1.b1617071b83acp-1"],
    2**64 - 1: ["0x1.4cd90beb785d6p-1", "0x1.88819136fc648p-1", "0x1.4c36582ee638fp-1"],
}


@pytest.mark.parametrize("index", sorted(TRIAL_STREAMS))
def test_trial_stream_is_pinned(index):
    drawn = [x.hex() for x in trial_rng(20250807, index).random(3)]
    assert drawn == TRIAL_STREAMS[index], "the per-trial streams moved: no committed output replays"


def test_trial_counts_are_pinned():
    # a short stream at A = 30 where all four classes occur
    cfg = TrialConfig(a=30, word=build_sync_word(15, 2), channel=bsc(0.15), mu=0.25)
    counts = TrialEngine(cfg).run_batch(20250807, 0, 2000)
    assert counts == {"Correct": 160, "E1": 15, "E2": 1819, "E3": 6}, "the trial outcomes moved"
