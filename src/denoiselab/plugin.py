"""Out-of-process denoiser plugins over a child's standard streams.

Wire protocol (all integers little-endian, floats IEEE-754 f64):

  handshake  parent sends magic ``DNP1`` + u32 dim; child echoes both and
             they must match
  request    u8 tag 0x01, u32 k, f64 sigma, then k*dim values row-major
  response   u8 tag 0x02, u32 k, then k*dim values row-major
  shutdown   u8 tag 0xFF from the parent; the child exits 0

One request/response round trip per batch. The handle is single-owner:
callers must serialize requests; nothing here multiplexes one child across
threads. Protocol violations, child exits, timeouts, and dimension
mismatches raise distinct exception types.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import select
import struct
import subprocess
import sys
from typing import Callable

import numpy as np

from .denoisers import Denoiser, check_sigma
from .errors import (
    DimensionMismatchError,
    PluginExitError,
    PluginProtocolError,
    PluginTimeoutError,
    ValueRangeError,
)

PLUGIN_MAGIC = b"DNP1"
TAG_REQUEST = 0x01
TAG_RESPONSE = 0x02
TAG_SHUTDOWN = 0xFF

#: the thread counts OpenBLAS reads, first to last. A child gets OPENBLAS_NUM_THREADS=1
#: when the caller sets none of them: after each small request its idle workers would
#: spin on the core the parent then needs. A plugin doing large products per request
#: runs faster with a pool; setting any of these gives the child the caller's count.
CHILD_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class ExternalDenoiser(Denoiser):
    """A ``Denoiser`` evaluated by a child process over the plugin protocol.

    ``command`` is the child's argv list; ``dim`` is the expected data
    dimension, at least 1 (checked before the child starts) and confirmed
    during the handshake. ``timeout`` (seconds) bounds every wait to read or
    write; a write that times out kills the child, since the stream is then
    desynchronised. Each ``evaluate_batch`` call is one round trip; a reply
    holding a NaN or an infinity raises ``ValueRangeError``, and so does a
    sigma outside ``check_sigma(sigma, zero=True)``. The child runs one OpenBLAS
    thread unless the caller sets one of ``CHILD_THREAD_VARS``, which it then inherits.
    """

    def __init__(self, command: list[str], dim: int, timeout: float = 30.0):
        if dim < 1:
            raise ValueRangeError(f"plugin dimension must be at least 1, got {dim}")
        self.dim = dim
        self.timeout = timeout
        env = dict(os.environ)
        if not any(name in env for name in CHILD_THREAD_VARS):
            env["OPENBLAS_NUM_THREADS"] = "1"
        self._proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        os.set_blocking(self._proc.stdin.fileno(), False)
        try:
            self._write(PLUGIN_MAGIC + struct.pack("<I", dim))
            reply = self._read(8)
        except Exception:
            self._kill()
            raise
        if reply[:4] != PLUGIN_MAGIC:
            self._kill()
            raise PluginProtocolError(
                f"handshake returned magic {reply[:4]!r}, expected {PLUGIN_MAGIC!r}")
        (child_dim,) = struct.unpack("<I", reply[4:])
        if child_dim != dim:
            self._kill()
            raise DimensionMismatchError(
                f"plugin serves dimension {child_dim}, expected {dim}")

    def _write(self, data: bytes) -> None:
        fd = self._proc.stdin.fileno()
        view = memoryview(data)
        while view:
            try:
                view = view[os.write(fd, view):]
            except BlockingIOError:
                if not select.select([], [fd], [], self.timeout)[1]:
                    self._kill()
                    raise PluginTimeoutError(
                        f"plugin read no request bytes within {self.timeout}s") from None
            except OSError as exc:
                raise PluginExitError(
                    f"plugin exited (code {self._proc.poll()}) while writing") from exc

    def _read(self, n: int, more: bool = False) -> bytes:
        """The next n bytes of a frame; ``more`` says that the frame goes on after them.

        A child sends nothing unasked, so the last read of a frame asks for one
        byte more than it needs: a byte sent with the frame's end but past it
        raises PluginProtocolError, at no extra system call.
        """
        fd = self._proc.stdout.fileno()
        chunks = b""
        while len(chunks) < n:
            ready, _, _ = select.select([fd], [], [], self.timeout)
            if not ready:
                raise PluginTimeoutError(
                    f"no reply from plugin within {self.timeout}s")
            got = os.read(fd, n - len(chunks) + (not more))
            if not got:
                raise PluginExitError(
                    f"plugin exited (code {self._proc.poll()}) mid-reply")
            chunks += got
        if len(chunks) > n:
            raise PluginProtocolError(f"plugin sent bytes past its {n}-byte frame")
        return chunks

    def evaluate_batch(self, X: np.ndarray, sigma: float) -> np.ndarray:
        X = np.ascontiguousarray(X, dtype="<f8")
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"batch shape {X.shape} does not match plugin dimension {self.dim}")
        sigma = check_sigma(sigma, zero=True)
        k = X.shape[0]
        self._write(struct.pack("<BId", TAG_REQUEST, k, sigma) + X.tobytes())
        header = self._read(5, more=True)
        if header[0] != TAG_RESPONSE:
            raise PluginProtocolError(f"expected response tag 0x02, got {header[0]:#x}")
        (reply_k,) = struct.unpack("<I", header[1:])
        if reply_k != k:
            raise DimensionMismatchError(
                f"plugin replied with {reply_k} rows to a {k}-row request")
        # a bytearray gives a writable array without a numpy copy: each numpy
        # call costs several microseconds between two blocking reads
        out = np.frombuffer(bytearray(self._read(8 * k * self.dim)), "<f8").reshape(k, self.dim)
        if not np.isfinite(out).all():
            raise ValueRangeError("plugin replied with a non-finite value")
        return out

    def close(self) -> None:
        """Send shutdown, reap the child (killing it after ``timeout``) and close its pipes."""
        if self._proc.poll() is None:
            with contextlib.suppress(PluginExitError, PluginTimeoutError):
                self._write(struct.pack("<B", TAG_SHUTDOWN))
                self._proc.stdin.close()
            with contextlib.suppress(subprocess.TimeoutExpired):  # killed below
                self._proc.wait(timeout=self.timeout)
        self._kill()

    def _kill(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdin.close()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __del__(self):
        with contextlib.suppress(Exception):  # also where __init__ failed before _proc
            self._kill()


def external_denoise(endpoint: ExternalDenoiser, batch: np.ndarray,
                     sigma: float) -> np.ndarray:
    """One request/response round trip for a batch of rows."""
    return endpoint.evaluate_batch(batch, sigma)


def serve_plugin(handler: Callable[[np.ndarray, float], np.ndarray], dim: int,
                 stdin=None, stdout=None) -> int:
    """Child side of the protocol; returns the intended process exit code.

    ``handler(batch, sigma)`` maps a k x dim array to a k x dim array. The
    loop exits 0 on the shutdown tag, nonzero on protocol violations or EOF;
    a handler result of another shape is one, and gets no reply.
    """
    stdin = stdin if stdin is not None else sys.stdin.buffer
    stdout = stdout if stdout is not None else sys.stdout.buffer

    def read_exact(n: int) -> bytes | None:
        data = b""
        while len(data) < n:
            got = stdin.read(n - len(data))
            if not got:
                return None
            data += got
        return data

    hello = read_exact(8)
    if hello is None or hello[:4] != PLUGIN_MAGIC:
        return 2
    (parent_dim,) = struct.unpack("<I", hello[4:])
    stdout.write(PLUGIN_MAGIC + struct.pack("<I", dim))
    stdout.flush()
    if parent_dim != dim:
        return 1
    while True:
        tag = read_exact(1)
        if tag is None:
            return 1
        if tag[0] == TAG_SHUTDOWN:
            return 0
        if tag[0] != TAG_REQUEST:
            return 2
        header = read_exact(12)
        if header is None:
            return 1
        k, sigma = struct.unpack("<Id", header)
        payload = read_exact(8 * k * dim)
        if payload is None:
            return 1
        batch = np.frombuffer(payload, dtype="<f8").reshape(k, dim)
        result = np.ascontiguousarray(handler(batch, sigma), dtype=np.float64)
        if result.shape != (k, dim):
            return 2
        stdout.write(struct.pack("<BI", TAG_RESPONSE, k))
        stdout.write(result.astype("<f8").tobytes())
        stdout.flush()


def main(argv: list[str] | None = None) -> int:
    """Built-in plugins: an echo loopback and the analytic denoisers."""
    parser = argparse.ArgumentParser(prog="denoiselab-plugin")
    sub = parser.add_subparsers(dest="kind", required=True)
    p_echo = sub.add_parser("echo", help="return every batch unchanged")
    p_echo.add_argument("--dim", type=int, required=True)
    for name in ("gaussian", "multi-delta"):
        p = sub.add_parser(name, help=f"serve the {name} denoiser of a dataset")
        p.add_argument("--data", required=True)
        p.add_argument("--format", default="csv",
                       choices=["csv", "raw-f64", "pgm-dir"])
    p_aff = sub.add_parser("affine", help="serve an affine checkpoint")
    p_aff.add_argument("--checkpoint", required=True)
    args = parser.parse_args(argv)

    if args.kind == "echo":
        return serve_plugin(lambda X, sigma: X, args.dim)
    if args.kind == "affine":
        from .distillation import load_affine

        den = load_affine(args.checkpoint)
        return serve_plugin(den.evaluate_batch, den.dim)
    from .dataset import empirical_stats, load_dataset
    from .denoisers import GaussianDenoiser, MultiDeltaDenoiser

    data = load_dataset(args.data, args.format)
    if args.kind == "gaussian":
        den = GaussianDenoiser(empirical_stats(data))
    else:
        den = MultiDeltaDenoiser(data)
    return serve_plugin(den.evaluate_batch, den.dim)


if __name__ == "__main__":
    sys.exit(main())
