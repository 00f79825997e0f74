"""Start ``repro serve`` with the layer wrappers installed.

    python3 perfbench/traced_serve.py --spans spans.json -- --seed 1 serve ...

The wrappers of :mod:`layers` go in before the CLI builds the
``SchedulerDaemon``; the spans are written when the daemon stops.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List

from common import pin_threads, use_sources
from layers import SpanRecorder, install


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or "--" not in argv:
        print("usage: traced_serve.py --spans PATH -- REPRO_ARGS...",
              file=sys.stderr)
        return 2
    spans = Path(argv[1])
    cli_args = argv[argv.index("--") + 1:]
    pin_threads()
    use_sources()
    recorder = SpanRecorder()
    install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(cli_args)
    finally:
        recorder.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
