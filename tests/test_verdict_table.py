"""scripts/verdict_table.py: one line per push decision on the corpus."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "verdict_table.py"


def test_verdict_table_holds_every_seed_1_push_to_the_oracle():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--seeds", "1"], capture_output=True, text=True, timeout=120, check=False
    )
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert lines[-1] == "kept: 50  oracle=equal: 54  oracle=unverified: 1  pushed: 55"
    for line in lines[:-1]:
        seed, _, _, action, _ = line.split("  ", 4)
        assert seed in ("fixture", "1")
        assert (action == "pushed") == line.endswith(("oracle=equal", "oracle=unverified"))
    # The per-firing bound test approves D=Dx*3, D<Dx under D<25, where no
    # firing reads a dropped tuple, and names the bound an unguarded step breaks.
    assert "1  #38  r3  pushed  upper-ascending (ascending-safe: r1, r2)  oracle=equal" in lines
    assert (
        "1  #2  r3  kept  cannot push upper(p: arg 1 < 25): not an ascending mapping: "
        "head cost may fall below 25 when Dx >= 25 (rule r2)"
    ) in lines
