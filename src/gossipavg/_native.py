"""Build and load the compiled kernel ``_kernel.c``, a CPython extension module.

Its ``METH_FASTCALL`` entries take arrays through the buffer protocol: a
run's PCG64 stream, numpy's bits seeded and stepped in C; the draws of a
chunk, with numpy's C samplers (``libnpyrandom.a``, linked) on that stream
or on the ``bitgen_t`` of a Generator's ``rng.bit_generator.capsule``; the
pair loop; and the exact sums, a superaccumulator in portable C99 (no
``__int128``).

It is built once with the system C compiler, ``Python.h`` and numpy's
headers, and cached as ``$XDG_CACHE_HOME/gossipavg/kernel-<hash><EXT_SUFFIX>``
(``~/.cache`` when the variable is unset; the temporary directory if neither
can be written); a build then deletes all but the newest KEEP libraries of
that directory.  The compiler and ``Python.h`` are looked up only for a
build, so a cached load imports no ``sysconfig``.  The name hashes the
source, the flags, ``EXT_SUFFIX``, ``numpy.__version__`` and the bytes of
``libnpyrandom.a``, so an edited source or another numpy is rebuilt, never
a stale sampler loaded.  The hash is ``importlib.util.source_hash``, the
interpreter's own 64-bit SipHash for hash-based ``.pyc`` files, so a load
imports neither ``hashlib`` nor OpenSSL's ``_hashlib``.  The flags keep IEEE
double semantics (no fused multiply-add, no fast-math), which the kernel
needs to match the Python reference loop bit for bit.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import warnings
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, source_hash, spec_from_loader
from pathlib import Path
from types import ModuleType
from typing import Iterator, Optional

import numpy

SOURCE = Path(__file__).with_name("_kernel.c")
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
SAMPLERS = Path(numpy.__file__).parent / "random" / "lib" / "libnpyrandom.a"
#: The interpreter's extension suffix, ``sysconfig``'s ``EXT_SUFFIX``.
EXT_SUFFIX = EXTENSION_SUFFIXES[0]
#: Libraries a build leaves in its cache directory, itself included: enough
#: for a few checkouts of other sources to alternate without rebuilding.
KEEP = 4


def _python_h() -> Path:
    """What a build reads besides the source and numpy's headers."""
    import sysconfig  # only a build needs it

    return Path(sysconfig.get_paths()["include"], "Python.h")


def _cache_dirs() -> Iterator[Path]:
    """Cache directories to try, in order.  A relative XDG_CACHE_HOME is
    ignored, as the XDG spec asks, so the cache never lands in the
    working directory."""
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    home = os.path.expanduser("~")
    if os.path.isabs(xdg):
        yield Path(xdg, "gossipavg")
    elif os.path.isabs(home):
        yield Path(home, ".cache", "gossipavg")
    yield Path(tempfile.gettempdir(), "gossipavg")


def library_name(source: bytes, samplers: bytes, numpy_version: str) -> str:
    """File name of the module built from ``source``, linked against the
    ``samplers`` archive of numpy ``numpy_version``."""
    key = source_hash(b"\0".join([
        source, " ".join(FLAGS).encode(), EXT_SUFFIX.encode(), numpy_version.encode(), samplers]))
    return f"kernel-{key.hex()}{EXT_SUFFIX}"


def compiler_command(cc: str, output: str, *extra: str) -> list[str]:
    """The command that compiles the source, given on stdin, into the
    module ``output``; ``extra`` flags (warnings, say) go after FLAGS."""
    return [cc, *FLAGS, *extra, f"-I{_python_h().parent}", f"-I{numpy.get_include()}", "-x", "c",
            "-", "-x", "none", str(SAMPLERS), "-o", output, "-lm"]


def _build(cc: str, source: bytes, path: Path) -> None:
    """Compile ``source`` to ``path`` through a temporary file and os.replace."""
    import subprocess  # only a build needs it

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run(compiler_command(cc, tmp), input=source, check=True,
                       capture_output=True, timeout=300)
        os.replace(tmp, path)
    except subprocess.CalledProcessError as exc:
        raise OSError(f"{cc} exited {exc.returncode}: "
                      f"{exc.stderr.decode(errors='replace').strip()[-500:]}") from exc
    except subprocess.TimeoutExpired as exc:
        raise OSError(f"{cc} timed out") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _build_tools() -> tuple[Optional[str], Optional[str]]:
    """The C compiler on PATH and what a build lacks, None when nothing."""
    cc = shutil.which("cc")
    if cc is None:
        return None, "no C compiler 'cc' on PATH"
    python_h = _python_h()
    return cc, None if python_h.is_file() else f"no Python.h at {python_h}"


def _evict(path: Path) -> None:
    """Delete the kernel libraries beside ``path``, just built, beyond the
    newest KEEP by mtime.  A concurrent build's ``*.tmp`` file does not match,
    and a file that another process removed first is skipped."""
    others = []
    for other in path.parent.glob(f"kernel-*{EXT_SUFFIX}"):
        if other != path:
            try:
                others.append((other.stat().st_mtime_ns, other))
            except OSError:  # removed by another process meanwhile
                pass
    others.sort(reverse=True)
    for _, old in others[KEEP - 1:]:
        try:
            old.unlink()
        except OSError:  # as above; a failed eviction never fails the load
            pass


def _import(path: Path) -> ModuleType:
    # the init function, PyInit__kernel, follows the name, not the file's
    loader = ExtensionFileLoader(f"{__package__}._kernel", str(path))
    module = module_from_spec(spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module


def load() -> Optional[ModuleType]:
    """The kernel module, built first if no cached copy exists.

    Returns None, with one RuntimeWarning naming what is missing, when it
    can neither be found nor built, or refuses to load (its init raises
    ImportError where its normal sampler differs from numpy's); the engines
    then run numpy's draws and their Python reference loop.
    """
    source = SOURCE.read_bytes()
    tools = problem = None
    for cache in _cache_dirs():
        try:  # a missing libnpyrandom.a fails here, in every cache
            path = cache / library_name(source, SAMPLERS.read_bytes(), numpy.__version__)
            if not path.exists():
                cc, missing = tools = tools or _build_tools()
                if missing:
                    problem = problem or missing
                    continue
                _build(cc, source, path)
                _evict(path)
            return _import(path)
        except (OSError, ImportError) as exc:
            problem = f"{type(exc).__name__}: {exc}"
    warnings.warn(f"gossipavg: compiled kernel unavailable ({problem}); using numpy's draws, "
                  "the slower pure-Python loop and math.fsum", RuntimeWarning, stacklevel=2)
    return None
