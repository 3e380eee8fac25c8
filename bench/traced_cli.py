"""Run the ruminslice CLI with tracing on and save the aggregates.

    python3 bench/traced_cli.py OUT.json <ruminslice arguments...>

Used by the traced cli-fixtures run: each invocation still gets a fresh
interpreter, and ``run.py`` adds the saved counts and times to its own.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from ruminslice import cli  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.write(out, spans=False)


if __name__ == "__main__":
    sys.exit(main())
