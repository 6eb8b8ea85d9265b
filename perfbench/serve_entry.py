"""Traced server entry point: span wrappers first, then ``repro.cli.main_serve``.

Usage: ``python perfbench/serve_entry.py <span-dir> <repro-serve args...>``.
The wrappers are installed before the server forks its workers, so every
worker inherits them; each process writes ``<span-dir>/spans-<pid>.json``
when it exits (the frontend on SIGINT, after its drain).
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def main(argv) -> int:
    from perfbench.layers import Tracer
    from perfbench.spans import SpanRecorder

    span_dir, serve_args = argv[0], list(argv[1:])
    recorder = SpanRecorder()
    Tracer(recorder, span_dir).install()
    from repro.cli import main_serve

    try:
        return main_serve(serve_args)
    finally:
        recorder.dump(os.path.join(span_dir, f"spans-{os.getpid()}.json"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
