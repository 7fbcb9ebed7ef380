"""Property harness for the binary containers, the CSV and PGM readers, the CLI and
the plugin's reply frames.

Each reader gets a valid file cut at every length, with flipped bytes and
with extreme header fields. It must return a valid object or raise a
``ToolkitError`` or ``OSError``, nothing else. The examples are derandomized,
so every run tries the same ones and no example database is written.
"""

import contextlib
import io
import math
import shutil
import struct
import subprocess
import sys
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denoiselab import (
    AffineDenoiser,
    DataMatrix,
    ExternalDenoiser,
    ToyDenoiser,
    cli,
    init_toy,
    load_affine,
    load_dataset,
    load_toy,
    save_affine,
    save_toy,
    write_raw_f64,
)
from denoiselab.errors import ToolkitError
from denoiselab.plugin import PLUGIN_MAGIC
from denoiselab.verify import SUITES

#: about 2 s for this file on 2 cores
PROPERTY = settings(max_examples=50, deadline=2000, derandomize=True, database=None)
U32 = st.sampled_from([0, 1, 2, 3, 2**32 - 1])
F64 = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.5])
FLIPS = st.just([]) | st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)),
                               min_size=1, max_size=3)


def _raw_f64(path):
    write_raw_f64(path, np.linspace(-1.0, 1.0, 6).reshape(3, 2))
    return path.read_bytes()


def _affine(path):
    save_affine(AffineDenoiser(np.eye(3) / 2, np.full(3, 0.25), sigma=0.5), path)
    return path.read_bytes()


def _toy(path):
    save_toy(init_toy(0, 3, 2, "skip"), path)
    return path.read_bytes()


def _csv(path):
    path.write_bytes(b"0.5,-0.25\n-1,1e-3\n")
    return path.read_bytes()


def _pgm_dir(path):
    path.mkdir(exist_ok=True)
    return b"P5\n2 1\n255\n\x00\xff"


def _valid_matrix(X):
    assert isinstance(X, DataMatrix)


def _valid_affine(D):
    assert isinstance(D, AffineDenoiser)
    assert D.weight.shape == (D.dim, D.dim) and D.bias.shape == (D.dim,) and D.dim >= 1
    assert np.all(np.isfinite(D.weight)) and np.all(np.isfinite(D.bias))


def _valid_toy(D):
    assert isinstance(D, ToyDenoiser) and D.dim >= 1 and D.hidden >= 1
    assert all(np.all(np.isfinite(p)) for p in D.params)
    assert math.isfinite(D.sigma_data) and D.sigma_data > 0


#: format -> (valid file, reader, validity check, header fields as (struct format, offset, values))
FORMATS = {
    "DDL1": (_raw_f64, lambda p: load_dataset(p, "raw-f64"), _valid_matrix,
             [("<I", 4, U32), ("<I", 8, U32)]),
    "AFF1": (_affine, load_affine, _valid_affine, [("<I", 4, U32), ("<d", 8, F64)]),
    "TOY1": (_toy, load_toy, _valid_toy,
             [("<B", 4, st.sampled_from([0, 1, 2, 255])), ("<I", 5, U32), ("<I", 9, U32),
              ("<d", 13, F64)]),
    "PGM": (_pgm_dir, lambda p: load_dataset(p, "pgm-dir"), _valid_matrix, []),
    "CSV": (_csv, lambda p: load_dataset(p, "csv"), _valid_matrix, []),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


@pytest.fixture(scope="module")
def valid(workdir):
    """The bytes of one valid file of each format, written once."""
    return {fmt: FORMATS[fmt][0](_target(workdir, fmt)[0]) for fmt in FORMATS}


def _target(tmp_path, fmt):
    """The path the reader is given and the file its bytes go to."""
    path = tmp_path / fmt
    return path, (path / "a.pgm" if fmt == "PGM" else path)


def _read_or_refuse(fmt, path, file, blob):
    """Read ``blob``; True if the reader refused it with a typed error."""
    _, read, check, _ = FORMATS[fmt]
    file.write_bytes(blob)
    try:
        obj = read(path)
    except (ToolkitError, OSError):
        return True
    check(obj)
    return False


def _mutate(blob, fields, data):
    blob = bytearray(blob)
    for layout, offset, values in fields:
        value = data.draw(st.none() | values)
        if value is not None:
            struct.pack_into(layout, blob, offset, value)
    for pos, mask in data.draw(FLIPS):
        blob[pos % len(blob)] ^= mask
    cut = data.draw(st.none() | st.integers(0, len(blob) - 1))
    return bytes(blob[:cut])


@pytest.mark.parametrize("fmt", sorted(set(FORMATS) - {"CSV"}))
def test_reader_refuses_every_truncation(tmp_path, fmt):
    path, file = _target(tmp_path, fmt)
    blob = FORMATS[fmt][0](path)
    assert not _read_or_refuse(fmt, path, file, blob)
    for cut in range(len(blob)):
        assert _read_or_refuse(fmt, path, file, blob[:cut])


@pytest.mark.parametrize("fmt", ["AFF1", "DDL1", "TOY1"])
@PROPERTY
@given(data=st.data())
def test_container_reader_property(workdir, valid, fmt, data):
    path, file = _target(workdir, fmt)
    _read_or_refuse(fmt, path, file, _mutate(valid[fmt], FORMATS[fmt][3], data))


def test_csv_reader_takes_or_refuses_every_truncation(tmp_path):
    # a cut at a line end leaves a shorter valid file
    path, file = _target(tmp_path, "CSV")
    blob = _csv(path)
    for cut in range(len(blob) + 1):
        _read_or_refuse("CSV", path, file, blob[:cut])


@PROPERTY
@given(data=st.data())
def test_csv_reader_property(workdir, valid, data):
    path, file = _target(workdir, "CSV")
    _read_or_refuse("CSV", path, file, _mutate(valid["CSV"], [], data))


PGM_SIZE = st.sampled_from([b"1", b"2", b"02", b"0", b"00", b"-2", b"+2", b"1_0", b"2.0",
                            b"0x2", b"4294967295", b"\xd9\xa2"])
PGM_MAXVAL = st.sampled_from([b"255", b"0255", b"+255", b"25_5", b"-255", b"256", b"0"])


def _positive_decimal(token):
    return token.isdigit() and int(token) >= 1


def _lenient_int(token):
    """The size a permissive parser would read, so the pixel count can match it."""
    try:
        return min(abs(int(token)), 16)
    except ValueError:
        return 1


@PROPERTY
@given(width=PGM_SIZE, height=PGM_SIZE, maxval=PGM_MAXVAL, short=st.integers(0, 1),
       data=st.data())
def test_pgm_reader_property(workdir, width, height, maxval, short, data):
    path, file = _target(workdir, "PGM")
    _pgm_dir(path)
    pixels = max(0, _lenient_int(width) * _lenient_int(height) - short)
    blob = b"P5\n" + width + b" " + height + b"\n" + maxval + b"\n" + bytes(pixels)
    mutated = _mutate(blob, [], data)
    refused = _read_or_refuse("PGM", path, file, mutated)
    if mutated == blob and not (_positive_decimal(width) and _positive_decimal(height)
                                and maxval.isdigit() and int(maxval) == 255):
        assert refused


@PROPERTY
@given(appended=st.binary(min_size=1, max_size=8))
def test_pgm_reader_refuses_bytes_past_the_image(workdir, valid, appended):
    path, file = _target(workdir, "PGM")
    assert _read_or_refuse("PGM", path, file, valid["PGM"] + appended)


@settings(PROPERTY, max_examples=30)
@given(fmt=st.sampled_from(["AFF1", "TOY1"]), data=st.data())
def test_cli_sample_at_a_mutated_checkpoint_exits_0_or_3(workdir, valid, fmt, data):
    path, _ = _target(workdir, fmt)
    path.write_bytes(_mutate(valid[fmt], FORMATS[fmt][3], data))
    kind = "affine" if fmt == "AFF1" else "toy"
    out = path.parent / "out"
    code = cli.main(["sample", "--denoiser", f"{kind}:{path}", "--dim", "3", "--steps", "3",
                     "--out", str(out)])
    assert code in (0, 3)


NUMBER = st.sampled_from(["2", "0", "-1", "nan", "inf", "abc", "1e155", "0.001", "1e-200"])
SMALL = st.sampled_from(["2", "3", "0", "-1"])
DENOISER = st.none() | st.sampled_from(["gaussian", "multi-delta"])
SCHEDULE = ["--sigma-min", "--sigma-max", "--rho", "--steps"]
#: subcommand -> (numeric flags, of which a run sets up to two, and the
#: other flags, drawn every run; values None mark a switch)
CLI_FLAGS = {
    "stats": (["--seed"], []),
    "sample": (["--seed", "--count", *SCHEDULE],
               [("--denoiser", DENOISER), ("--oracle", None), ("--raw", None)]),
    "distill": (["--seed", "--batch", "--lr", "--sigmas"],
                [("--steps", SMALL), ("--teacher", DENOISER)]),
    "metrics": (["--seed", "--alpha", "--beta", *SCHEDULE],
                [("--n", SMALL), ("--metric", st.sampled_from(["linearity", "score-diff"])),
                 ("--variant", st.none() | st.sampled_from(["cosine", "nmse", "rmse"])),
                 ("--denoiser", DENOISER), ("--denoiser2", DENOISER), ("--svg", None)]),
    "verify": (["--seed", "--dim", "--tolerance", "--n-samples", "--n-seeds", "--n-starts"],
               [("--suite", st.sampled_from(sorted(SUITES)))]),
}
#: examples per subcommand: the deep paths of sample and metrics need the most
EXAMPLES = {"stats": 10, "sample": 70, "distill": 60, "metrics": 100, "verify": 30}


@pytest.fixture(scope="module")
def small_csv(workdir):
    path = workdir / "small.csv"
    rows = np.linspace(-0.9, 0.9, 18).reshape(6, 3)
    path.write_text("".join(",".join(map(repr, row.tolist())) + "\n" for row in rows))
    return path


def _argv(subcommand, data):
    numeric, other = CLI_FLAGS[subcommand]
    argv = [subcommand]
    for flag in data.draw(st.sets(st.sampled_from(numeric), max_size=2)):
        argv += [flag, data.draw(NUMBER, label=flag)]
    for flag, values in other:
        value = data.draw(st.booleans() if values is None else values, label=flag)
        if value is True:
            argv.append(flag)
        elif value:  # None and False leave the flag out
            argv += [flag, value]
    if "theorem1" in argv:  # its default of 20,000 steps takes half a second
        argv += ["--steps", data.draw(SMALL, label="--steps")]
    return argv


@pytest.mark.parametrize("subcommand", sorted(CLI_FLAGS))
def test_cli_exit_code_property(workdir, small_csv, subcommand):
    # exit 0, 2, 3 or 4 (1 only from verify), no exception, traceback or numpy
    # warning, a manifest exactly when the run finished, and no empty --out
    out = workdir / "cli-out"
    data_flags = [] if subcommand == "verify" else ["--data", str(small_csv)]

    @settings(PROPERTY, max_examples=EXAMPLES[subcommand])
    @given(data=st.data())
    def run(data):
        argv = _argv(subcommand, data) + data_flags + ["--out", str(out)]
        shutil.rmtree(out, ignore_errors=True)
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refuses a flag value
                code = exc.code
        assert code in ((0, 1, 2, 3, 4) if subcommand == "verify" else (0, 2, 3, 4))
        assert "Traceback" not in stderr.getvalue()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert (out / "manifest.json").exists() == (code in (0, 1))
        assert not out.exists() or any(out.iterdir())

    run()


#: a 3-d plugin child without numpy: it answers the handshake with argv[1],
#: reads one 1-row request, answers it with argv[2] in one write and exits
FAKE_CHILD = """
import sys
hello, reply = (bytes.fromhex(arg) for arg in sys.argv[1:])
stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
stdin.read(8)
stdout.write(hello)
stdout.flush()
stdin.read(13 + 3 * 8)
stdout.write(reply)
stdout.flush()
"""
HELLO = PLUGIN_MAGIC + struct.pack("<I", 3)
ROWS = (0.5, -0.25, 1.0)
REPLY = struct.pack("<BI3d", 0x02, 1, *ROWS)
#: tag, k, and the first and last value of the reply
REPLY_FIELDS = [("<B", 0, st.sampled_from([0x00, 0x01, 0x03, 0xFF])), ("<I", 1, U32),
                ("<d", 5, F64), ("<d", 21, F64)]


def _exchange(hello, reply):
    """The row one request to ``FAKE_CHILD`` returns, or the ToolkitError it raises.

    No case may wait out the 10 s timeout, and the child is reaped either way.
    """
    children, popen = [], subprocess.Popen

    def recorded(*args, **kwargs):
        children.append(popen(*args, **kwargs))
        return children[-1]

    command = [sys.executable, "-S", "-c", FAKE_CHILD, hello.hex(), reply.hex()]
    start = time.monotonic()
    with mock.patch.object(subprocess, "Popen", recorded):
        try:
            with ExternalDenoiser(command, dim=3, timeout=10.0) as plugin:
                result = plugin.evaluate_batch(np.zeros((1, 3)), 1.0)
        except ToolkitError as exc:  # PluginError is one
            result = exc
    assert time.monotonic() - start < 5.0
    assert children[0].returncode is not None
    return result


def _served_row(reply):
    """The row a reply carries, if it is a well-formed 1-row reply of finite values."""
    if len(reply) == len(REPLY) and reply[:5] == REPLY[:5]:
        row = struct.unpack("<3d", reply[5:])
        if all(math.isfinite(v) for v in row):
            return row
    return None


def test_plugin_reply_of_every_length_is_refused_but_the_whole_one():
    for cut in range(len(REPLY) + 1):
        result = _exchange(HELLO, REPLY[:cut])
        if cut == len(REPLY):
            assert result.shape == (1, 3) and tuple(result[0]) == ROWS
        else:
            assert isinstance(result, ToolkitError), cut


@settings(PROPERTY, max_examples=30)
@given(data=st.data())
def test_plugin_reply_frame_property(data):
    reply = _mutate(REPLY, REPLY_FIELDS, data)
    reply += data.draw(st.just(b"") | st.binary(min_size=1, max_size=8), label="trailing")
    result = _exchange(HELLO, reply)
    row = _served_row(reply)
    if row is None:
        assert isinstance(result, ToolkitError)
    else:  # the untouched reply, or one whose flips left finite values
        assert isinstance(result, np.ndarray) and result.shape == (1, 3)
        assert result[0].tobytes() == struct.pack("<3d", *row)


@settings(PROPERTY, max_examples=10)
@given(hello=st.tuples(st.integers(0, 3), st.integers(1, 255)).map(
           lambda flip: HELLO[:flip[0]] + bytes([HELLO[flip[0]] ^ flip[1]]) + HELLO[flip[0] + 1:])
       | st.sampled_from([0, 1, 2, 4, 2**32 - 1]).map(
           lambda dim: PLUGIN_MAGIC + struct.pack("<I", dim)))
def test_plugin_handshake_property(hello):
    assert isinstance(_exchange(hello, REPLY), ToolkitError)
