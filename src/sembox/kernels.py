"""Build and load the compiled element kernels (``kernels.c``).

The right-hand side and the filter of ``dynamics`` run as C loops, one
fused pass per element, compiled for one order at a time (``-DNN=n``)
with the host's C compiler: ``sysconfig``'s ``CC``, else ``cc``.  The
shared object is cached under ``$XDG_CACHE_HOME/sembox`` (else
``~/.cache/sembox``), named by a CRC-32 of the source, the flags, the
order and the interpreter (``sys.executable``), whose build
configuration names the compiler: a changed source or interpreter
builds anew, and a cached build serves every later process.  Only a
build reads the compiler from ``sysconfig`` and imports ``subprocess``,
so a run from the cache loads neither ``sysconfig``'s data (0.2 MiB) nor
``subprocess`` (0.5 MiB).  A build goes to a temporary file that is
renamed into place, so no reader sees half an object.  ``harness``
loads the kernels during set-up, before the workers start, so no worker
thread compiles; a ``ctypes`` call releases the GIL, so the workers'
kernels run at the same time.

The build keeps every product and sum apart (``-ffp-contract=off``), so
the kernels give the bytes of the numpy kernels they replaced; the tests
keep those as oracles.
"""

from dataclasses import dataclass
import ctypes
import os
import sys
import zlib

import numpy as np

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernels.c")
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")
# lines of the compiler's standard error a build failure reports
STDERR_TAIL = 20
# most nodes per direction (order 15): a kernel holds about 20 NN^3
# doubles of an element on the stack, 0.6 MiB at 16, well inside a
# thread's stack
MAX_NODES = 16

_POINTER = ctypes.c_void_p
_INT = ctypes.c_int64
# a kernel's verdict on a gather index outside the point field
BAD_INDEX = -2 ** 63


class KernelBuildError(RuntimeError):
    """The C compiler could not build the element kernels."""

    def __init__(self, compiler: str, detail: str):
        super().__init__(f"cannot build the element kernels with {compiler!r}: "
                         f"{detail}")
        self.compiler = compiler


@dataclass(frozen=True)
class CompiledKernels:
    """The element kernels of one order, loaded from their shared object:
    ``rhs`` and ``filter`` are the C functions ``rhs_contributions`` and
    ``filter_contributions``."""

    n_nodes: int
    rhs: object
    filter: object


def compiler() -> list[str]:
    """The C compiler command: ``sysconfig``'s ``CC``, else ``cc``."""
    import sysconfig      # its data loads on first use: only a build needs it
    return (sysconfig.get_config_var("CC") or "cc").split()


def cache_dir() -> str:
    """``$XDG_CACHE_HOME/sembox``, else ``~/.cache/sembox``."""
    base = (os.environ.get("XDG_CACHE_HOME")
            or os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "sembox")


def _build(source: bytes, n: int, path: str) -> None:
    """Compile ``source`` for ``n`` nodes per direction into ``path``."""
    import subprocess     # only a build needs it
    cc = compiler()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    cmd = [*cc, *FLAGS, f"-DNN={n}", "-x", "c", "-", "-o", tmp, "-lm"]
    try:
        proc = subprocess.run(cmd, input=source, capture_output=True)
    except OSError as exc:
        raise KernelBuildError(" ".join(cc), str(exc)) from None
    if proc.returncode != 0:
        if os.path.exists(tmp):
            os.unlink(tmp)
        tail = proc.stderr.decode(errors="replace").splitlines()[-STDERR_TAIL:]
        raise KernelBuildError(" ".join(cc), f"exit status {proc.returncode}\n"
                               + "\n".join(tail))
    os.replace(tmp, path)


def load(n: int) -> CompiledKernels:
    """The element kernels for ``n`` nodes per direction, built on first
    use (see the module docstring); raises :class:`KernelBuildError`
    when the compiler is missing or fails, ValueError for more than
    ``MAX_NODES`` nodes per direction."""
    if not 2 <= n <= MAX_NODES:
        raise ValueError(f"the compiled kernels take 2 to {MAX_NODES} nodes "
                         f"per direction (orders 1 to {MAX_NODES - 1}), got {n}")
    with open(SOURCE, "rb") as f:
        source = f.read()
    key = zlib.crc32("\0".join([*FLAGS, str(n), sys.executable]).encode(),
                     zlib.crc32(source))
    path = os.path.join(cache_dir(), f"kernels-n{n}-{key:08x}.so")
    if not os.path.exists(path):
        _build(source, n, path)
    lib = ctypes.CDLL(path)
    rhs = lib.rhs_contributions
    rhs.restype = _INT
    rhs.argtypes = ([_POINTER] * 3 + [_INT] + [_POINTER] * 5
                    + [ctypes.c_double, _INT, _POINTER])
    filt = lib.filter_contributions
    filt.restype = _INT
    filt.argtypes = [_POINTER, _INT] + [_POINTER] * 3 + [_INT, _POINTER]
    return CompiledKernels(n, rhs, filt)


def pointer(a: np.ndarray, dtype) -> int:
    """Address of ``a``'s data; ``a`` must be C-contiguous ``dtype``."""
    if a.dtype != dtype or not a.flags.c_contiguous:
        raise ValueError(f"a kernel argument must be C-contiguous {np.dtype(dtype)}, "
                         f"got {a.dtype} {'' if a.flags.c_contiguous else 'non-'}"
                         "contiguous")
    return a.ctypes.data
