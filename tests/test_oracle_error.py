"""tools/oracle_error.py: the reference oracle against every 40-digit table."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_prints_each_table_and_the_total():
    proc = subprocess.run([sys.executable, "tools/oracle_error.py", "--repeat", "1"],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    tables = sorted(path.stem for path in (ROOT / "tests" / "data").glob("*_exact.json"))
    assert [line.split(":")[0] for line in lines[:-1]] == tables
    total = re.fullmatch(r"oracle over (\d+) exact-table entries: worst relative error (\S+); "
                         r"total time (\S+) ms \(best of 1\)", lines[-1])
    assert total is not None, lines[-1]
    assert int(total.group(1)) == 250
    assert all(re.search(r"; time \S+ ms$", line) for line in lines[:-1])
    worst = max(float(re.search(r"worst relative error (\S+)", line).group(1)) for line in lines[:-1])
    assert float(total.group(2)) == worst
