import io
import os
import select
import struct
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest

from denoiselab import (
    Denoiser,
    ExternalDenoiser,
    GaussianDenoiser,
    MultiDeltaDenoiser,
    empirical_stats,
    external_denoise,
    jacobian_fd,
    load_dataset,
    serve_plugin,
)
from denoiselab.errors import (
    DimensionMismatchError,
    PluginExitError,
    PluginProtocolError,
    PluginTimeoutError,
    ValueRangeError,
)
from denoiselab import plugin as plugin_module
from denoiselab.plugin import CHILD_THREAD_VARS

from conftest import NAN_BELOW_ONE, plugin_argv, write_csv

ECHO = plugin_argv("echo", "--dim", 3)


def _child(script: str) -> list[str]:
    return [sys.executable, "-c", script]


#: an echo plugin whose dimension spells what it saw of CHILD_THREAD_VARS, one digit
#: each in that order, 0 where unset: the handshake fails unless the parent expects it
THREAD_VARS_AS_DIM = _child(
    "import os\n"
    "from denoiselab.plugin import CHILD_THREAD_VARS, serve_plugin\n"
    "dim = int(''.join(os.environ.get(name, '0') for name in CHILD_THREAD_VARS))\n"
    "serve_plugin(lambda X, s: X, dim)\n")


@pytest.mark.parametrize("caller, seen", [
    ({}, 100),
    ({"OMP_NUM_THREADS": "3"}, 3),
    ({"GOTO_NUM_THREADS": "4"}, 40),
    ({"MKL_NUM_THREADS": "5"}, 100),
], ids=["none-set-so-openblas-one", "omp-set-so-passed-through", "goto-set-so-passed-through",
        "mkl-is-not-read-by-openblas"])
def test_child_blas_threads_default_to_one_unless_the_caller_sets_a_count(monkeypatch, caller,
                                                                          seen):
    for name in CHILD_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    for name, value in caller.items():
        monkeypatch.setenv(name, value)
    before = dict(os.environ)
    with ExternalDenoiser(THREAD_VARS_AS_DIM, dim=seen) as plugin:
        assert np.array_equal(plugin.evaluate_batch(np.ones((1, seen)), 1.0), np.ones((1, seen)))
    assert dict(os.environ) == before


@pytest.mark.parametrize("kind, build", [
    ("gaussian", lambda X: GaussianDenoiser(empirical_stats(X))),
    ("multi-delta", MultiDeltaDenoiser),
], ids=["gaussian", "multi-delta"])
def test_single_threaded_child_is_bitwise_the_in_process_denoiser(monkeypatch, tmp_path, rng,
                                                                  kind, build):
    for name in CHILD_THREAD_VARS:  # the child runs one BLAS thread, this process its own pool
        monkeypatch.delenv(name, raising=False)
    d = 128
    data = write_csv(tmp_path / "d.csv", rng.uniform(-1, 1, (64, d)))
    reference = build(load_dataset(data, "csv"))
    x = rng.uniform(-1, 1, d)
    batch = rng.uniform(-1, 1, (200, d))
    with ExternalDenoiser(plugin_argv(kind, "--data", data), dim=d) as plugin:
        # one 256-row request, then one 200-row request
        assert jacobian_fd(plugin, x, 1.0).tobytes() == jacobian_fd(reference, x, 1.0).tobytes()
        assert (plugin.evaluate_batch(batch, 0.5).tobytes()
                == reference.evaluate_batch(batch, 0.5).tobytes())


def test_echo_plugin_loopback(rng):
    with ExternalDenoiser(ECHO, dim=3) as plugin:
        X = rng.standard_normal((4, 3))
        out = external_denoise(plugin, X, 1.0)
        assert np.array_equal(out, X)
        x = rng.standard_normal(3)
        assert np.array_equal(plugin.evaluate(x, 2.0), x)


def test_plugin_shutdown_exits_zero():
    plugin = ExternalDenoiser(ECHO, dim=3)
    plugin.close()
    assert plugin._proc.returncode == 0


@pytest.mark.parametrize("command, error", [
    (ECHO, None),
    (plugin_argv("echo", "--dim", 5), DimensionMismatchError),
    (_child("import sys\nsys.stdout.buffer.write(b'XXXX' + sys.stdin.buffer.read(8)[4:])\n"),
     PluginProtocolError),
], ids=["closed-by-with", "handshake-dim-mismatch", "handshake-bad-magic"])
def test_plugin_pipes_are_closed_on_every_path(monkeypatch, command, error):
    started, real_popen = [], subprocess.Popen

    def popen(*args, **kwargs):  # keeps the child, which a failed __init__ does not return
        started.append(real_popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", popen)
    if error is None:
        with ExternalDenoiser(command, dim=3):
            pass
    else:
        with pytest.raises(error):
            ExternalDenoiser(command, dim=3)
    (proc,) = started
    assert proc.returncode is not None
    assert proc.stdin.closed and proc.stdout.closed


def test_handshake_dimension_mismatch():
    cmd = plugin_argv("echo", "--dim", 5)
    with pytest.raises(DimensionMismatchError):
        ExternalDenoiser(cmd, dim=3)


def test_gaussian_reference_plugin(tmp_path, rng):
    rows = np.clip(0.4 * rng.standard_normal((16, 4)), -1, 1)
    data_path = write_csv(tmp_path / "d.csv", rows)
    X = load_dataset(data_path, "csv")
    reference = GaussianDenoiser(empirical_stats(X))
    cmd = plugin_argv("gaussian", "--data", data_path)
    with ExternalDenoiser(cmd, dim=4) as plugin:
        queries = rng.standard_normal((6, 4))
        for sigma in (0.3, 1.0, 9.0):
            gap = plugin.evaluate_batch(queries, sigma) \
                - reference.evaluate_batch(queries, sigma)
            assert np.max(np.abs(gap)) < 1e-9


def test_protocol_violation_bad_magic():
    script = (
        "import sys\n"
        "data = sys.stdin.buffer.read(8)\n"
        "sys.stdout.buffer.write(b'XXXX' + data[4:])\n"
        "sys.stdout.buffer.flush()\n"
    )
    with pytest.raises(PluginProtocolError):
        ExternalDenoiser(_child(script), dim=3)


def test_child_exit_detected():
    with pytest.raises(PluginExitError):
        ExternalDenoiser(_child("pass"), dim=3)


def test_timeout_detected():
    script = (
        "import sys, time\n"
        "data = sys.stdin.buffer.read(8)\n"
        "sys.stdout.buffer.write(data)\n"
        "sys.stdout.buffer.flush()\n"
        "time.sleep(60)\n"
    )
    plugin = ExternalDenoiser(_child(script), dim=2, timeout=0.5)
    with pytest.raises(PluginTimeoutError):
        plugin.evaluate_batch(np.zeros((1, 2)), 1.0)
    plugin._kill()


def test_write_to_a_child_that_stops_reading_times_out():
    script = (
        "import sys, time\n"
        "data = sys.stdin.buffer.read(8)\n"
        "sys.stdout.buffer.write(data)\n"
        "sys.stdout.buffer.flush()\n"
        "time.sleep(60)\n"
    )
    plugin = ExternalDenoiser(_child(script), dim=128, timeout=1.0)
    batch = np.zeros((256, 128))  # a 256 KiB request, four times the pipe buffer
    start = time.monotonic()
    with pytest.raises(PluginTimeoutError):
        plugin.evaluate_batch(batch, 1.0)
    assert time.monotonic() - start < plugin.timeout + 2.0
    # the stream is desynchronised, so the child is killed at once, and its pipes closed
    assert plugin._proc.poll() is not None
    assert plugin._proc.stdin.closed and plugin._proc.stdout.closed


def test_wrong_row_count_reported_as_dimension_mismatch():
    script = (
        "import sys, struct\n"
        "h = sys.stdin.buffer.read(8)\n"
        "sys.stdout.buffer.write(h); sys.stdout.buffer.flush()\n"
        "tag = sys.stdin.buffer.read(1)\n"
        "k, sigma = struct.unpack('<Id', sys.stdin.buffer.read(12))\n"
        "payload = sys.stdin.buffer.read(k * 2 * 8)\n"
        "sys.stdout.buffer.write(struct.pack('<BI', 2, k + 1))\n"
        "sys.stdout.buffer.write(payload)\n"
        "sys.stdout.buffer.flush()\n"
    )
    plugin = ExternalDenoiser(_child(script), dim=2, timeout=5.0)
    with pytest.raises(DimensionMismatchError):
        plugin.evaluate_batch(np.zeros((3, 2)), 1.0)
    plugin._kill()


def test_short_reply_raises_dimension_mismatch_at_once_not_at_the_timeout():
    script = (
        "import sys, struct, time\n"
        "h = sys.stdin.buffer.read(8)\n"
        "sys.stdout.buffer.write(h); sys.stdout.buffer.flush()\n"
        "tag = sys.stdin.buffer.read(1)\n"
        "k, sigma = struct.unpack('<Id', sys.stdin.buffer.read(12))\n"
        "payload = sys.stdin.buffer.read(k * 2 * 8)\n"
        "sys.stdout.buffer.write(struct.pack('<BI', 2, k - 1) + payload[16:])\n"
        "sys.stdout.buffer.flush()\n"
        "time.sleep(60)\n"
    )
    plugin = ExternalDenoiser(_child(script), dim=2, timeout=30.0)
    start = time.monotonic()
    with pytest.raises(DimensionMismatchError, match="2 rows to a 3-row request"):
        plugin.evaluate_batch(np.zeros((3, 2)), 1.0)
    assert time.monotonic() - start < 5.0
    plugin._kill()


def test_reply_larger_than_the_pipe_buffer_is_an_aligned_writable_array(rng):
    batch = rng.standard_normal((256, 128))  # 256 KiB each way, four times the pipe buffer
    with ExternalDenoiser(plugin_argv("echo", "--dim", 128), dim=128) as plugin:
        out = plugin.evaluate_batch(batch, 1.0)
    assert out.dtype == np.float64 and out.shape == batch.shape
    assert out.flags.aligned and out.flags.writeable and out.flags.c_contiguous
    assert out.tobytes() == batch.tobytes()


def test_a_reply_that_arrives_whole_takes_one_wait_and_one_read(monkeypatch, rng):
    with ExternalDenoiser(ECHO, dim=3) as plugin:
        select_spy, os_spy = mock.Mock(wraps=select), mock.Mock(wraps=os)
        monkeypatch.setattr(plugin_module, "select", select_spy)
        monkeypatch.setattr(plugin_module, "os", os_spy)
        for _ in range(20):  # the child writes each 29-byte reply in one system call
            select_spy.reset_mock()
            os_spy.reset_mock()
            x = rng.standard_normal((1, 3))
            assert np.array_equal(plugin.evaluate_batch(x, 1.0), x)
            assert [name for name, _, _ in select_spy.method_calls] == ["select"]
            assert len([name for name, _, _ in os_spy.method_calls
                        if name.startswith("read")]) == 1
        monkeypatch.undo()


def test_non_finite_reply_raises_value_range_error():
    with ExternalDenoiser(NAN_BELOW_ONE, dim=3) as plugin:
        X = np.ones((2, 3))
        out = plugin.evaluate_batch(X, 1.0)
        assert np.array_equal(out, X) and out.flags.writeable  # callers may work in place
        with pytest.raises(ValueRangeError, match="non-finite"):
            plugin.evaluate_batch(X, 0.5)
    assert plugin._proc.returncode == 0  # the stream stays in step: a clean shutdown


def test_batch_shape_validated_before_sending():
    with ExternalDenoiser(ECHO, dim=3) as plugin:
        with pytest.raises(DimensionMismatchError):
            plugin.evaluate_batch(np.zeros((2, 4)), 1.0)


def test_serve_plugin_in_memory_session():
    dim = 2
    X = np.array([[1.0, -2.0], [0.5, 0.25]])
    request = io.BytesIO()
    request.write(b"DNP1" + struct.pack("<I", dim))
    request.write(struct.pack("<BId", 0x01, 2, 0.5) + X.astype("<f8").tobytes())
    request.write(struct.pack("<B", 0xFF))
    request.seek(0)
    reply = io.BytesIO()
    code = serve_plugin(lambda batch, sigma: 2.0 * batch, dim,
                        stdin=request, stdout=reply)
    assert code == 0
    blob = reply.getvalue()
    assert blob[:8] == b"DNP1" + struct.pack("<I", dim)
    tag, k = struct.unpack("<BI", blob[8:13])
    assert tag == 0x02 and k == 2
    out = np.frombuffer(blob[13:], dtype="<f8").reshape(2, dim)
    assert np.array_equal(out, 2.0 * X)


def test_serve_plugin_rejects_garbage():
    bad = io.BytesIO(b"JUNKJUNK")
    assert serve_plugin(lambda b, s: b, 2, stdin=bad, stdout=io.BytesIO()) == 2
    eof = io.BytesIO(b"DNP1" + struct.pack("<I", 2))
    assert serve_plugin(lambda b, s: b, 2, stdin=eof, stdout=io.BytesIO()) == 1


def test_external_denoiser_is_a_denoiser():
    with ExternalDenoiser(ECHO, dim=3) as plugin:
        assert isinstance(plugin, Denoiser)
        assert "evaluate" not in vars(ExternalDenoiser)


def test_serve_plugin_rejects_wrong_result_shape():
    dim = 3
    request = io.BytesIO()
    request.write(b"DNP1" + struct.pack("<I", dim))
    request.write(struct.pack("<BId", 0x01, 2, 0.5) + np.zeros((2, dim)).tobytes())
    request.write(struct.pack("<B", 0xFF))
    request.seek(0)
    reply = io.BytesIO()
    code = serve_plugin(lambda batch, sigma: batch[:, :2], dim,
                        stdin=request, stdout=reply)
    assert code == 2
    # only the handshake was written: no header and no partial payload
    assert reply.getvalue() == b"DNP1" + struct.pack("<I", dim)
