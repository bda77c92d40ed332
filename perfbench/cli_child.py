"""Traced stand-in for ``python -m liqgame.cli``.

Usage: python perfbench/cli_child.py SPANS_PATH [--probe | CLI ARGS...]

Times the numpy import and the liqgame import apart, rebinds the library
functions the CLI handlers call to traced wrappers, runs ``liqgame.cli.main``
on the remaining arguments and writes the spans to SPANS_PATH as JSON. With
``--probe`` it stops after the imports. Needs ``src`` on PYTHONPATH.
"""

import sys

from tracing import CLI_LAYERS, Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    code = 0
    try:
        with tracer.span("import.numpy"):
            import numpy  # noqa: F401
        with tracer.span("import.liqgame"):
            import liqgame.cli
        if argv != ["--probe"]:
            tracer.install(CLI_LAYERS)
            with tracer.span("cli.main"):
                code = liqgame.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
