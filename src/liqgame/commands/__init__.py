"""One adapter per ``liqgame`` subcommand: ``add_arguments(parser)`` and
``handle(args)``, which returns the report, a ``str`` to write as it is or a
JSON value, exactly what the subcommand's report builder returns, so scripted
use and library use cannot drift apart. Adapters call the library through its
modules (``core.build_payoff_matrix``) and never import ``liqgame.cli``, which
runs as ``__main__`` under ``python -m liqgame.cli``.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from pathlib import Path


def atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` and never leave a partial file behind:
    write next to the target, then rename."""
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
