"""Print, as a Markdown table, the liqgame source lines each README CLI example
compiles: the summed line counts of the ``liqgame`` modules loaded after
``cli.main`` returns, in a fresh interpreter per example.

    PYTHONPATH=src:tests python tests/compiled_lines.py

Every CLI process compiles the modules it loads (and, without a bytecode
cache, compiles them from source), so code that moves onto a subcommand's
path shows here as a larger figure for that subcommand.
"""

import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

from test_readme import readme_examples

SRC = str(Path(__file__).resolve().parent.parent / "src")

CHILD = """
import contextlib, io, json, sys
from liqgame import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
files = sorted(m.__file__ for name, m in sys.modules.items() if name.split(".")[0] == "liqgame")
print(json.dumps([code, files]))
"""


def compiled_lines(argv: list[str], cwd: str) -> tuple[int, list[str], int]:
    """Exit code, loaded liqgame modules and their summed line count."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC},
        check=True,
    )
    code, files = json.loads(proc.stdout)
    lines = sum(len(Path(f).read_bytes().splitlines()) for f in files)
    return code, [Path(f).stem for f in files], lines


def main() -> int:
    print("| lines | modules | command |")
    print("|---:|---|---|")
    with tempfile.TemporaryDirectory() as cwd:  # --histogram writes here
        for command in readme_examples():
            code, modules, lines = compiled_lines(shlex.split(command)[1:], cwd)
            if code != 0:
                print(f"{command} exited {code}", file=sys.stderr)
                return 1
            print(f"| {lines} | {', '.join(modules)} | `{command}` |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
