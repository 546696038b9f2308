"""Start ``repro serve`` with the benchmark's layer wrappers installed.

Traced served-whatif runs launch the service through this file instead
of ``python -m repro.cli serve``.  It installs the same span wrappers
the grid sessions use and then calls the CLI entry point in the same
process, so the process layout matches the untraced run.  The spans are
written to ``--spans-out`` when the service exits.  Spans inside the
worker processes are not recorded.

    python bench/serve_launcher.py --spans-out spans.json serve --backend process
"""

from __future__ import annotations

import sys
from typing import List

import tracing


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans-out":
        print(__doc__, file=sys.stderr)
        return 2
    spans_out, cli_args = argv[1], argv[2:]
    recorder = tracing.SpanRecorder().install()
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
