"""Start ``repro serve`` with the program's layers wrapped in spans.

Usage: ``python3 perfbench/launcher.py --spans-out FILE serve [serve args]``.

The launcher installs the wrappers of :mod:`perfbench.layers` (core, index,
serve, runtime and query), then calls the normal CLI entry point. Spans stay
in memory and are written to ``FILE`` once, after the server has drained.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans-out":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spans_out, serve_argv = argv[1], argv[2:]
    sys.path[0] = str(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench import layers
    from perfbench.spans import SpanRecorder
    from repro.cli import main as cli_main

    recorder = SpanRecorder()
    core = layers.CoreTracing(recorder)
    layers.install_serve(recorder)
    try:
        return cli_main(serve_argv)
    finally:
        recorder.dump(spans_out, {"core": core.counters()})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
