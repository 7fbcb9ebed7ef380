import io
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from denoiselab import (
    Denoiser,
    ExternalDenoiser,
    GaussianDenoiser,
    empirical_stats,
    external_denoise,
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

from conftest import NAN_BELOW_ONE, write_csv

ECHO = [sys.executable, "-m", "denoiselab.plugin_cli", "echo", "--dim", "3"]


def _child(script: str) -> list[str]:
    return [sys.executable, "-c", script]


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
    ([sys.executable, "-m", "denoiselab.plugin_cli", "echo", "--dim", "5"],
     DimensionMismatchError),
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
    cmd = [sys.executable, "-m", "denoiselab.plugin_cli", "echo", "--dim", "5"]
    with pytest.raises(DimensionMismatchError):
        ExternalDenoiser(cmd, dim=3)


def test_gaussian_reference_plugin(tmp_path, rng):
    rows = np.clip(0.4 * rng.standard_normal((16, 4)), -1, 1)
    data_path = write_csv(tmp_path / "d.csv", rows)
    X = load_dataset(data_path, "csv")
    reference = GaussianDenoiser(empirical_stats(X))
    cmd = [sys.executable, "-m", "denoiselab.plugin_cli", "gaussian",
           "--data", str(data_path)]
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
