"""Record the golden stdout and exit code of each README command.

Run from the repository root:  python3 perfbench/make_golden.py
Writes perfbench/golden/<name>.out and perfbench/golden/exit_codes.json.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import README_COMMANDS

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    codes = {}
    for name, line in README_COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "bessel_lommel", *line.split()],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, check=False,
        )
        (GOLDEN / f"{name}.out").write_bytes(proc.stdout)
        codes[name] = proc.returncode
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")


if __name__ == "__main__":
    main()
