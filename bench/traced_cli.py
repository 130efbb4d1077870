"""Run one conedn subcommand with the benchmark's wrappers installed.

    python3 traced_cli.py SPANS_JSON SUBCOMMAND [ARGS...]

The traced cli-suite runs each subcommand through this script instead of
``python -m conedn.cli``.  It records the import of the package and the
``conedn.cli.main`` call as root spans, the library's boundary spans
beneath them, and writes the spans to SPANS_JSON when ``main`` returns.
"""

import json
import sys
from pathlib import Path

import spans


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    rec = spans.Recorder()
    rec.active = True
    index = rec.open("cli.import")
    import conedn.cli
    rec.close(index)
    spans.install(rec)
    index = rec.open(f"cli.{argv[0]}")
    try:
        return conedn.cli.main(argv)
    finally:
        rec.close(index)
        out.write_text(json.dumps(rec.to_json()))


if __name__ == "__main__":
    raise SystemExit(main())
