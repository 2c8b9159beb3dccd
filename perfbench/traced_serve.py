"""Run ``repro serve`` with the benchmark's timing wrappers installed.

Usage: ``python3 perfbench/traced_serve.py OUT.json serve [serve args...]``

Installs :func:`spans.install_server` in this process, hands the rest
of the command line to the program's own CLI entry point, and after the
server has shut down writes the span aggregates to ``OUT.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.SpanRecorder()
    spans.install_server(recorder)
    from repro.cli import main as cli_main

    code = cli_main(argv)
    Path(out).write_text(json.dumps(recorder.dump()), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
