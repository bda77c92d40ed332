"""A pytest plugin that lists the ``src/liqgame`` lines a test run never executes.

Load it by name, with ``tests`` on the import path (pytest does not collect it):

    PYTHONPATH=src:tests python -m pytest -q -p untested_lines [--untested-out PATH]

It traces the run with ``sys.settrace``, standard library only, and prints one
``path:line: source`` entry per line never reached; ``--untested-out`` writes the
same list to a file too. Lines that run only in a child process, such as a test's
fresh interpreter, count as unexecuted. The bodies of ``if TYPE_CHECKING:`` and of
the ``if __name__ == "__main__":`` guard are left out, since no run executes them.
"""

import ast
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "liqgame"
PREFIX = str(SRC) + "/"

executed: set[tuple[str, int]] = set()


def _trace_lines(frame, event, arg):
    if event == "line":
        executed.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def _trace_calls(frame, event, arg):
    if frame.f_code.co_filename.startswith(PREFIX):
        executed.add((frame.f_code.co_filename, frame.f_lineno))
        return _trace_lines
    return None


def _code_lines(code) -> set[int]:
    """The lines that carry instructions of ``code`` and of the code nested in it;
    a nested function's first line runs in the enclosing code, as its ``def``."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const) - {const.co_firstlineno}
    return lines


def _never_run(tree) -> set[int]:
    """The lines of ``if TYPE_CHECKING:`` and ``if __name__ == "__main__":`` bodies."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
            "TYPE_CHECKING",
            "__name__ == '__main__'",
        ):
            for stmt in node.body:
                skipped.update(range(stmt.lineno, stmt.end_lineno + 1))
    return skipped


def untested_lines() -> list[str]:
    """``path:line: source`` for every executable line of the package not run so far."""
    report = []
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        code = compile(source, str(path), "exec", dont_inherit=True)
        lines = source.splitlines()
        missed = _code_lines(code) - _never_run(ast.parse(source))
        missed -= {line for name, line in executed if name == str(path)}
        relative = path.relative_to(SRC.parent.parent)
        report += [f"{relative}:{n}: {lines[n - 1].strip()}" for n in sorted(missed)]
    return report


def pytest_addoption(parser):
    parser.addoption("--untested-out", help="also write the list of unexecuted lines here")


def pytest_configure(config):
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)


def pytest_terminal_summary(terminalreporter, config):
    sys.settrace(None)
    threading.settrace(None)
    report = untested_lines()
    terminalreporter.write_sep("=", f"{len(report)} src/liqgame lines never executed")
    for entry in report:
        terminalreporter.write_line(entry)
    if config.getoption("untested_out"):
        Path(config.getoption("untested_out")).write_text("".join(f"{e}\n" for e in report))
