"""Fixtures shared by every test tree (``tests/`` and ``benchmarks/``)."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session", autouse=True)
def session_cache_dir(tmp_path_factory):
    """Point ``$REPRO_CACHE_DIR`` at a fresh directory for the whole session.

    Every cache the package keeps on disk (flow results, compiled kernels)
    resolves its root from this variable at call time, so no test or
    benchmark reads or evicts the user's default cache, and each run trains
    what it reports.  The old value is restored afterwards.
    """
    cache_dir = tmp_path_factory.mktemp("repro-cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        yield cache_dir
