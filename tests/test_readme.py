"""Every ``liqgame`` example in the README's CLI section, pinned by exit code
and the SHA-256 of its stdout (and of the histogram file it writes), so a
refactor that changes any report byte fails here."""

import hashlib
import re
import shlex
from pathlib import Path

import pytest

from liqgame import cli

README = Path(__file__).resolve().parent.parent / "README.md"

# command as written in the README -> (exit code, stdout SHA-256, histogram SHA-256)
EXAMPLES = {
    "liqgame solve --bi 2 --bj -2": (
        0,
        "31ab269b8be5a306c512944661c530348f1faffe9688ea4c9281a3ec28697f26",
        None,
    ),
    "liqgame solve --bi 3 --bj -3 --format csv": (
        0,
        "cde29464c62fb52d456174037c76f1332242371d5c4cfaa86e2e86105b1942a8",
        None,
    ),
    "liqgame bayes": (
        0,
        "1d06a3e20883c56d16827f3f8e121e88afb0531c400c032fe6f5837fae28fefc",
        None,
    ),
    "liqgame bayes --prior 1,0": (
        0,
        "be51393e6cc9436fb88d2f8bc34875cc7e369270dcc333dfff7b5f2bd7d0385a",
        None,
    ),
    "liqgame bayes --response a=high,b=low": (
        0,
        "173928314ac7aa76ce02d5bb4fa55e642f127664eaca60e34bf29b04676695e8",
        None,
    ),
    "liqgame market --published final_4x4": (
        0,
        "ff06d5d49379df1bc64988c76c7c12b6b91b03269c57e002a99637567cd5d8ed",
        None,
    ),
    "liqgame market --constructive --priors 0.35,0.65": (
        0,
        "07729d1e654f0e9afe68d33a6395c29fe244c9fef4215d08f551c74d47a53318",
        None,
    ),
    "liqgame market --published final_4x4 --format csv": (
        0,
        "4682ead412c362ba16dce3ac443a2a95b08eda371ab7d01bf5da78acabbde2d1",
        None,
    ),
    "liqgame simulate --trials 100000 --seed 42": (
        0,
        "321e717a207f7738f2d84f2cf2aaba7405380484b70bceb105b9401a422c7ff6",
        None,
    ),
    "liqgame simulate --trials 2000 --seed 7 --mode repeated --histogram rounds.csv": (
        0,
        "6c6de849124740e6eb6b3655d5dc53e6d57b77b3d0b96d294e395f33d049322f",
        "9f721f55b2822ccfbc816a0862176519e58b28df1900cb06573726e0a1efe2d2",
    ),
    "liqgame lp --receiver 10 --sender 20": (
        0,
        "917df3320d778ddbaa5c5c7742bc4046bf803c36ed2b050f30844ed206783469",
        None,
    ),
}


def readme_examples() -> list[str]:
    """The ``liqgame`` lines of the first bash block after ``## CLI``, without
    trailing comments."""
    text = README.read_text()
    section = text[text.index("\n## CLI\n") :]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    return [
        shlex.join(shlex.split(line, comments=True))
        for line in block.splitlines()
        if line.startswith("liqgame ")
    ]


def test_every_readme_example_is_pinned():
    assert readme_examples() == list(EXAMPLES)


@pytest.mark.parametrize("command", list(EXAMPLES))
def test_readme_example_report_bytes(command, capsys, tmp_path):
    code, stdout_digest, histogram_digest = EXAMPLES[command]
    argv = shlex.split(command)[1:]
    if "--histogram" in argv:
        at = argv.index("--histogram") + 1
        argv[at] = str(tmp_path / argv[at])
    assert cli.main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest
    if histogram_digest is not None:
        written = Path(argv[argv.index("--histogram") + 1]).read_bytes()
        assert hashlib.sha256(written).hexdigest() == histogram_digest
