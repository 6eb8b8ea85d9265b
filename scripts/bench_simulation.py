#!/usr/bin/env python
"""Regenerate ``BENCH_simulation.json`` (simulator throughput trajectory).

Usage (from the repo root)::

    PYTHONPATH=src python scripts/bench_simulation.py           # fast config
    PYTHONPATH=src python scripts/bench_simulation.py --full    # larger sweeps
    PYTHONPATH=src python scripts/bench_simulation.py --compare # diff, no write

Records samples/s for the vectorized datapath simulators, gate-evals/s for
the reference interpreter (``interp``) and every execution engine
(``auto`` / ``native``) and a roofline section relating each to the
measured memcpy bandwidth,
next to the per-path speedup over the interpreted seed implementation.
The perf-smoke benchmark (``pytest benchmarks/test_perf_simulation.py``)
runs the same measurements and asserts the speedup floors, so simulator
regressions surface in CI.

``--compare [--baseline PATH]`` runs a fresh fast-config benchmark and
prints every tracked metric that dropped more than 10% vs the committed
``BENCH_simulation.json`` (or ``PATH``) instead of overwriting it.  It
always exits 0 — CI runs it non-blocking after the floors, as an advisory
signal only (absolute numbers are machine-dependent).
"""

import sys
from pathlib import Path

# Allow running straight from a checkout without installing the package.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.perf.benchmark import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
