"""Run the curvebound CLI under the span tracer (the traced cli_mix job).

Usage: python3 perfbench/traced_cli.py SPANS.json <curvebound CLI arguments>

Times the cold ``import curvebound``, installs the tracer, runs
``curvebound.cli.main`` and writes {"import_s", "spans", "absent"} to
SPANS.json.  Exits with the CLI's exit code.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main():
    spans_path, cli_args = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import curvebound.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        code = curvebound.cli.main(cli_args)
    finally:
        tracer.uninstall()
        Path(spans_path).write_text(json.dumps(
            {"import_s": import_s, "spans": tracer.export(), "absent": tracer.absent}),
            encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
