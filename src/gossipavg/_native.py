"""Build and load the compiled kernel ``_kernel.c`` (pair loop, exact sums) through ctypes.

The exact sums are a superaccumulator in portable C99 (``int64_t`` and
``uint64_t`` bins, no ``__int128``): each summand's mantissa goes exactly
into a bin per sign and exponent, the bins are carried into 32-bit chunks,
and the chunks are rounded half-even once, giving ``math.fsum``'s result
bit for bit at a few ns per value.  They hand over to ``math.fsum`` only
where it could raise (a value or square that is not finite or large enough
to overflow).

The shared library is built once with the system C compiler and cached as
``$XDG_CACHE_HOME/gossipavg/kernel-<sha256>.so`` (``~/.cache`` when the
variable is unset; the temporary directory if neither can be written).
The name hashes the source and the compiler flags, so an edited source is
rebuilt.  The flags keep IEEE double semantics (no fused multiply-add, no
fast-math), which the kernel needs to match the Python reference loop bit
for bit.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import tempfile
import warnings
from pathlib import Path
from typing import Iterator, Optional

SOURCE = Path(__file__).with_name("_kernel.c")
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
LIBS = ("-lm",)


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


def library_name(source: bytes) -> str:
    """File name of the library built from ``source`` with FLAGS and LIBS."""
    key = hashlib.sha256(source + " ".join(FLAGS + LIBS).encode()).hexdigest()
    return f"kernel-{key}.so"


def _build(cc: str, source: bytes, path: Path) -> None:
    """Compile ``source`` to ``path`` through a temporary file and os.replace."""
    import subprocess  # only a build needs it

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.stem + ".", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run([cc, *FLAGS, "-x", "c", "-", "-o", tmp, *LIBS], input=source,
                       check=True, capture_output=True, timeout=300)
        os.replace(tmp, path)
    except subprocess.CalledProcessError as exc:
        raise OSError(f"{cc} exited {exc.returncode}: "
                      f"{exc.stderr.decode(errors='replace').strip()[-500:]}") from exc
    except subprocess.TimeoutExpired as exc:
        raise OSError(f"{cc} timed out") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    ptr, i64, c_int, dbl = ctypes.c_void_p, ctypes.c_int64, ctypes.c_int, ctypes.c_double
    lib.pair_chunk.argtypes = [ptr, i64, ptr, ptr, ptr, i64, c_int, c_int, dbl, dbl, c_int,
                               ptr, ptr]
    lib.pair_chunk.restype = None
    lib.py_floordiv.argtypes = [dbl, dbl]
    lib.py_floordiv.restype = dbl
    # Called once per tracker check, often on few values: keeping the GIL
    # (PYFUNCTYPE) spares releasing and retaking it around a short call.
    lib.exact_moments = ctypes.PYFUNCTYPE(c_int, ptr, i64, c_int, ptr)(("exact_moments", lib))
    return lib


def load() -> Optional[ctypes.CDLL]:
    """The kernel library, built first if no cached copy exists.

    Returns None, with one RuntimeWarning, when it can neither be found nor
    built; the engines then run their Python reference loop.
    """
    source = SOURCE.read_bytes()
    name = library_name(source)
    problem = "no C compiler 'cc' on PATH"
    for cache in _cache_dirs():
        path = cache / name
        try:
            if not path.exists():
                cc = shutil.which("cc")
                if cc is None:
                    continue
                _build(cc, source, path)
            return _bind(ctypes.CDLL(str(path)))
        except (OSError, AttributeError) as exc:  # AttributeError: a symbol is missing
            problem = f"{type(exc).__name__}: {exc}"
    warnings.warn(f"gossipavg: compiled kernel unavailable ({problem}); "
                  "using the slower pure-Python loop and math.fsum", RuntimeWarning,
                  stacklevel=2)
    return None
