"""The hand-built examples run and reach the outcomes they narrate."""

import re
import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def run_example(name, capsys):
    runpy.run_path(str(EXAMPLES / f"{name}.py"), run_name="__main__")
    return capsys.readouterr().out


def test_deadlock_recovery_wedges_plain_and_drains_under_cr(capsys):
    out = run_example("deadlock_recovery", capsys)
    plain, cr = out.split("2) the same pattern under Compressionless")
    assert "DEADLOCK -> no progress" in plain
    # Four worms, each waiting on the next (uids depend on what ran
    # before in this process).
    assert re.search(r"dependency cycle: (\d+)( -> \d+){3} -> \1\b", plain)
    assert "unexpectedly survived" not in plain
    assert "drained=True" in cr
    delivered = re.findall(r"message \d->\d: delivered at t=(\d+)", cr)
    assert len(delivered) == 4


def test_irregular_network_delivers_all_pairs_in_order(capsys):
    out = run_example("irregular_network", capsys)
    # 9 nodes: 72 ordered pairs, one message each.
    assert re.search(r"messages delivered\s+72\b", out)
    assert re.search(r"FIFO pairs verified\s+72\b", out)
    assert "all-pairs traffic delivered, in order" in out
