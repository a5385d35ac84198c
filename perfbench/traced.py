"""Run one ``python -m repro`` command with spans recorded around it.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/traced.py SPANS_OUT -- figures --scale 0.1 --jobs 1

The command runs exactly as ``python -m repro <args>`` would, in this
process; the only difference is that the public functions listed in
``spans.TARGETS`` are wrapped first. The spans are written to
``SPANS_OUT`` when the command returns (for ``serve``, after the drain
shutdown).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: traced.py SPANS_OUT -- <repro args>", file=sys.stderr)
        return 2
    out, command = argv[0], argv[2:]
    recorder = spans.SpanRecorder()
    start = time.perf_counter()
    import repro.cli

    recorder.add(spans.IMPORT_SPAN, start, time.perf_counter())
    spans.install(recorder)
    try:
        return repro.cli.main(command)
    finally:
        sys.stdout.flush()
        recorder.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
