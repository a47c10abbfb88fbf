"""``tools/ab_simulate.py`` imports two netdual trees into one process,
checks that their runs leave the same RunHistory bytes and times them in
alternation. Run here on a short horizon of a benchmark workload."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_simulate.py"
SRC = ROOT / "src"


def ab(parent, change, *args):
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_same_tree_on_both_sides_is_identical_and_timed():
    done = ab(SRC, SRC, "--workload", "pushsum50-sched", "--pairs", "2", "--rounds", "30")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["workload"] == "pushsum50-sched"
    assert result["T"] == 30 and result["pairs"] == 2
    assert result["parent_us_per_round"] > 0 and result["change_us_per_round"] > 0
    assert 0 <= result["change_lower"] <= 2


def test_a_tree_that_moves_a_bit_is_refused(tmp_path):
    shutil.copytree(SRC / "netdual", tmp_path / "netdual")
    harness = tmp_path / "netdual" / "harness.py"
    text = harness.read_text()
    keyed = "SeedSequence([config.seed, config.T])"
    assert keyed in text
    harness.write_text(text.replace(keyed, "SeedSequence([config.seed + 1, config.T])"))
    done = ab(SRC, tmp_path, "--workload", "sweep20-prefix", "--pairs", "1", "--rounds", "5")
    assert done.returncode != 0
    assert "differs between the trees" in done.stderr
