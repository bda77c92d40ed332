"""Record the reference digests of ``liqgame solve`` reports.

Usage (from the repository root): python3 perfbench/record_digests.py

Writes perfbench/digests.json: the sha256 of the JSON report for every
rows x cols instance game with 2 <= rows, cols <= 8 at the default issue cap.
The recorded file comes from the seed code; re-recording it from changed code
would make the byte-identity check vacuous.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from checks import digest

SIDES = range(2, 9)


def main() -> None:
    env = dict(os.environ, PYTHONPATH="src")
    digests = {}
    for rows in SIDES:
        for cols in SIDES:
            argv = [sys.executable, "-m", "liqgame.cli", "solve", "--bi", str(rows), "--bj", str(-cols)]
            out = subprocess.run(argv, env=env, check=True, capture_output=True).stdout
            digests[f"{rows}x{cols}"] = digest(out)
    path = Path(__file__).parent / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
