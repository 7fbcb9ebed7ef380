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
    write. Each ``evaluate_batch`` call is one round trip; X that ``_check_input``
    refuses, or a sigma outside ``check_sigma(sigma, zero=True)``, sends no byte.
    A handshake or round trip that breaks before its frame is complete (a write
    that fails or times out, a read timeout, EOF, a refused reply header, bytes
    past the frame) ends the child; every later call raises ``PluginExitError``.
    A whole reply holding a NaN or an infinity raises ``ValueRangeError`` and keeps
    the child. The child runs one OpenBLAS thread unless the caller sets one of
    ``CHILD_THREAD_VARS``, which it then inherits.
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
        hello = bytearray(9)  # the 8-byte reply and the check byte of ``_read``
        try:  # a handshake that breaks ends the child, as a round trip that breaks does
            self._write(PLUGIN_MAGIC + struct.pack("<I", dim))
            self._read(hello)
            if hello[:4] != PLUGIN_MAGIC:
                raise PluginProtocolError(
                    f"handshake returned magic {bytes(hello[:4])!r}, expected {PLUGIN_MAGIC!r}")
            (child_dim,) = struct.unpack_from("<I", hello, 4)
            if child_dim != dim:
                raise DimensionMismatchError(
                    f"plugin serves dimension {child_dim}, expected {dim}")
        except BaseException:
            self._kill()
            raise

    def _write(self, data: bytes) -> None:
        fd = self._proc.stdin.fileno()
        view = memoryview(data)
        while view:
            try:
                view = view[os.write(fd, view):]
            except BlockingIOError:
                if not select.select([], [fd], [], self.timeout)[1]:
                    raise PluginTimeoutError(
                        f"plugin read no request bytes within {self.timeout}s") from None
            except OSError as exc:
                raise PluginExitError(
                    f"plugin exited (code {self._proc.poll()}) while writing") from exc

    def _read(self, frame, rows: int | None = None) -> memoryview:
        """Read the child's next frame into the writable buffer ``frame``; return the frame.

        A child sends nothing unasked, so ``frame`` holds one byte more than the
        frame: a byte that lands there was sent past the frame's end and raises
        PluginProtocolError, at no extra system call. With ``rows`` the frame is
        the reply to a request of that many rows, and its header is checked as
        soon as its 5 bytes are in, not after the rest arrives or times out.
        """
        fd = self._proc.stdout.fileno()
        view = memoryview(frame)
        n, got = len(view) - 1, 0
        while got < n:
            ready, _, _ = select.select([fd], [], [], self.timeout)
            if not ready:
                raise PluginTimeoutError(
                    f"no reply from plugin within {self.timeout}s")
            size = os.readv(fd, [view[got:]])
            if not size:
                raise PluginExitError(
                    f"plugin exited (code {self._proc.poll()}) mid-reply")
            if rows is not None and got < 5 <= got + size:
                if view[0] != TAG_RESPONSE:
                    raise PluginProtocolError(
                        f"expected response tag 0x02, got {view[0]:#x}")
                (reply_k,) = struct.unpack_from("<I", view, 1)
                if reply_k != rows:
                    raise DimensionMismatchError(
                        f"plugin replied with {reply_k} rows to a {rows}-row request")
            got += size
        if got > n:
            raise PluginProtocolError(f"plugin sent bytes past its {n}-byte frame")
        return view[:n]

    def evaluate_batch(self, X: np.ndarray, sigma: float) -> np.ndarray:
        X = self._check_input(X).astype("<f8", copy=False)
        sigma = check_sigma(sigma, zero=True)
        k = X.shape[0]
        if self._proc.returncode is not None:
            raise PluginExitError(f"plugin exited (code {self._proc.returncode}) before this call")
        try:  # whatever breaks a round trip, an interrupt too, leaves the stream out of step
            self._write(struct.pack("<BId", TAG_REQUEST, k, sigma) + X.tobytes())
            # the reply lands in one float64 buffer, its 5-byte header in the 8 bytes
            # before the rows and the check byte in the 8 after, so the returned
            # rows are aligned and writable with no copy
            buf = np.empty(k * self.dim + 2, "<f8")
            out = buf[1:-1].reshape(k, self.dim)
            self._read(buf.view(np.uint8)[3:9 + 8 * k * self.dim], rows=k)
        except BaseException:
            self._kill()
            raise
        if not np.isfinite(out).all():
            raise ValueRangeError("plugin replied with a non-finite value")
        return out

    def close(self) -> None:
        """Send shutdown, reap the child (killing it after ``timeout``) and close its pipes."""
        if self._proc.poll() is None:
            try:
                self._write(struct.pack("<B", TAG_SHUTDOWN))
                self._proc.stdin.close()
            except (PluginExitError, PluginTimeoutError):
                self._kill()  # the tag is not out, so the child is not waited for
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
    # a buffered writer of its own, also under ``python -u``: a reply that fits
    # its buffer leaves in one write, so the parent wakes once per reply
    stdout = stdout if stdout is not None else open(sys.stdout.fileno(), "wb", closefd=False)

    def read_into(buf) -> bool:
        """Fill the flat byte buffer ``buf`` from stdin; False at end of input."""
        view = memoryview(buf)
        got = 0
        while got < len(view):
            size = stdin.readinto(view[got:])
            if not size:
                return False
            got += size
        return True

    hello = bytearray(8)
    if not read_into(hello) or hello[:4] != PLUGIN_MAGIC:
        return 2
    (parent_dim,) = struct.unpack_from("<I", hello, 4)
    stdout.write(PLUGIN_MAGIC + struct.pack("<I", dim))
    stdout.flush()
    if parent_dim != dim:
        return 1
    tag, header = bytearray(1), bytearray(12)
    while True:
        if not read_into(tag):
            return 1
        if tag[0] == TAG_SHUTDOWN:
            return 0
        if tag[0] != TAG_REQUEST:
            return 2
        if not read_into(header):
            return 1
        k, sigma = struct.unpack("<Id", header)
        batch = np.empty((k, dim), "<f8")
        if not read_into(batch.reshape(-1).view(np.uint8)):
            return 1
        result = np.ascontiguousarray(handler(batch, sigma), dtype="<f8")
        if result.shape != (k, dim):
            return 2
        stdout.write(struct.pack("<BI", TAG_RESPONSE, k))
        stdout.write(result)  # from the rows' own buffer, with no bytes object made
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
