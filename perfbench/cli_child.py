"""Run the ``sphtrans`` CLI once, as its console script does.

    python3 perfbench/cli_child.py TRACE_OUT|- SUBCOMMAND [ARGS...]

With a TRACE_OUT path the layer wrappers are installed after the import
and before ``sphtrans.cli.main`` runs, and the layer totals, with the
import time as ``cli.import_s``, are written there as JSON.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    start = time.process_time()
    import sphtrans.cli

    import_s = time.process_time() - start
    if trace_out == "-":
        return sphtrans.cli.main(argv)

    import json

    from layers import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return sphtrans.cli.main(argv)
    finally:
        tracer.totals["cli.import_s"] += import_s
        Path(trace_out).write_text(json.dumps(tracer.totals))


if __name__ == "__main__":
    sys.exit(main())
