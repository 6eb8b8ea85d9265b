"""The system C compiler and the cache of shared objects built with it.

Two layers compile C at run time: the ``native`` simulation engine
(:mod:`repro.perf.native`) and the SVM trainer's epoch kernel
(:mod:`repro.ml.svm`).  They share this module, which depends on the
standard library only, so the low ``ml`` layer can compile a kernel without
importing ``perf``, which sits above it.

* **probe** — :func:`find_toolchain` looks for a compiler once per process:
  ``$CC`` first, then ``cc``/``gcc``/``clang`` on ``PATH``.  With no
  compiler, or ``$REPRO_NO_NATIVE=1``, it returns ``None`` and every caller
  takes its pure-Python path.
* **cache** — :func:`load_shared` keeps compiled objects in memory per
  process *and* on disk under :func:`default_cache_dir` (``native-kernels/``),
  keyed by the SHA-256 of toolchain fingerprint + compiler flags + source.
  A new compiler, new flags or new source never loads a stale object, and a
  second process loads the ``.so`` without invoking the compiler.
* **publish** — a build lands in a temporary directory and is moved into
  place with ``os.replace``, so processes racing on one key all succeed and
  none sees a half-written object.  A cached object the loader rejects
  (truncated, say) is a miss: it is unlinked and rebuilt.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Set to ``1``/``true``/``yes`` to pretend no toolchain exists — forces
#: every pure-Python fallback (exercised by a CI matrix leg).
NO_NATIVE_ENV = "REPRO_NO_NATIVE"
#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``.

    The root of every cache the repository keeps on disk: flow results and
    compiled kernels.

    Example::

        os.environ["REPRO_CACHE_DIR"] = "/tmp/repro-cache"
        default_cache_dir()                  # PosixPath('/tmp/repro-cache')
    """
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro").expanduser()


def kernel_cache_dir() -> Path:
    """Directory of the on-disk shared-object cache."""
    return default_cache_dir() / "native-kernels"


# --------------------------------------------------------------------------- #
# Toolchain detection (once per process, cached)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Toolchain:
    """A probed C compiler: absolute path plus its ``--version`` first line."""

    path: str
    version: str

    @property
    def fingerprint(self) -> str:
        """Stable digest of (path, version) — part of the disk-cache key, so
        upgrading or switching compilers invalidates cached objects."""
        return hashlib.sha256(
            f"{self.path}\0{self.version}".encode()
        ).hexdigest()[:16]


_UNPROBED = object()
_TOOLCHAIN: object = _UNPROBED
_TOOLCHAIN_LOCK = threading.Lock()


def _probe_toolchain() -> Optional[Toolchain]:
    if os.environ.get(NO_NATIVE_ENV, "").strip().lower() in ("1", "true", "yes"):
        return None
    candidates: List[str] = []
    cc_env = os.environ.get("CC", "").strip()
    if cc_env:
        candidates.append(cc_env)
    candidates += ["cc", "gcc", "clang"]
    for name in candidates:
        path = shutil.which(name)
        if not path:
            continue
        try:
            proc = subprocess.run(
                [path, "--version"], capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.SubprocessError):
            continue
        if proc.returncode == 0 and proc.stdout.strip():
            return Toolchain(path=path, version=proc.stdout.splitlines()[0].strip())
    return None


def find_toolchain(refresh: bool = False) -> Optional[Toolchain]:
    """The system C compiler, probed once per process and cached.

    Honors ``$CC`` first, then ``cc``/``gcc``/``clang`` on ``PATH``; a
    candidate counts only if it answers ``--version``.  Returns ``None``
    when :data:`NO_NATIVE_ENV` is set or nothing usable is found.
    ``refresh=True`` re-probes (tests use it after changing the
    environment).
    """
    global _TOOLCHAIN
    with _TOOLCHAIN_LOCK:
        if _TOOLCHAIN is _UNPROBED or refresh:
            _TOOLCHAIN = _probe_toolchain()
        return _TOOLCHAIN  # type: ignore[return-value]


def native_available() -> bool:
    """Whether compiled C kernels run here (a toolchain was found)."""
    return find_toolchain() is not None


# --------------------------------------------------------------------------- #
# Compilation + two-level (memory, disk) shared-object cache
# --------------------------------------------------------------------------- #
# digest -> loaded object; holding the CDLL keeps it mapped for as long as
# any caller may still hold one of its functions.
_SO_CACHE: Dict[str, ctypes.CDLL] = {}
_SO_LOCK = threading.Lock()


def _invoke_compiler(
    toolchain: Toolchain, c_path: Path, so_path: Path, flags: Sequence[str]
) -> None:
    """Run one compiler invocation (separate function so tests can spy on or
    fail it).  Raises ``RuntimeError`` with the compiler's stderr on failure."""
    proc = subprocess.run(
        [toolchain.path, *flags, "-fPIC", "-shared", "-o", str(so_path), str(c_path)],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"native kernel compilation failed ({toolchain.path} exited "
            f"{proc.returncode}):\n{proc.stderr}"
        )


def kernel_path(source: str, flags: Sequence[str], toolchain: Toolchain) -> Path:
    """Where the disk cache keeps the object compiled from ``source``.

    Keyed by SHA-256 of toolchain fingerprint + flags + source, so a new
    compiler, new flags or a source change never loads a stale object.
    """
    key = "\0".join([toolchain.fingerprint, " ".join(flags), source])
    digest = hashlib.sha256(key.encode()).hexdigest()[:32]
    return kernel_cache_dir() / f"{digest}.so"


def _compile_to(
    source: str, flags: Sequence[str], toolchain: Toolchain, so_path: Path
) -> None:
    """Build ``source`` in a temporary directory and publish it atomically.

    ``os.replace`` makes concurrent processes racing on the same key both
    succeed, and never exposes a half-written object.
    """
    with tempfile.TemporaryDirectory(dir=so_path.parent) as tmp:
        c_path = Path(tmp) / "kernel.c"
        c_path.write_text(source)
        tmp_so = Path(tmp) / "kernel.so"
        _invoke_compiler(toolchain, c_path, tmp_so, flags)
        os.replace(tmp_so, so_path)


def load_shared(
    source: str, flags: Sequence[str], toolchain: Toolchain
) -> ctypes.CDLL:
    """The shared object compiled from ``source`` with ``flags``.

    Memory first, then disk (see :func:`kernel_path`), compiling only on a
    double miss.  A disk entry the loader rejects is a miss: it is unlinked
    and rebuilt, and only a fresh build that still fails to load raises.

    Example::

        lib = load_shared("int one(void) { return 1; }", ("-O2",), find_toolchain())
        lib.one()                            # 1
    """
    so_path = kernel_path(source, flags, toolchain)
    digest = so_path.stem
    with _SO_LOCK:
        lib = _SO_CACHE.get(digest)
        if lib is not None:
            return lib
        so_path.parent.mkdir(parents=True, exist_ok=True)
        if not so_path.exists():
            _compile_to(source, flags, toolchain, so_path)
        try:
            lib = ctypes.CDLL(str(so_path))
        except OSError:
            so_path.unlink(missing_ok=True)
            _compile_to(source, flags, toolchain, so_path)
            lib = ctypes.CDLL(str(so_path))
        _SO_CACHE[digest] = lib
        return lib
