"""Property harness for the binary containers, the PGM reader and the CLI.

Each reader gets a valid file cut at every length, with flipped bytes and
with extreme header fields. It must return a valid object or raise a
``ToolkitError`` or ``OSError``, nothing else. The examples are derandomized,
so every run tries the same ones and no example database is written.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denoiselab import (
    AffineDenoiser,
    DataMatrix,
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


@pytest.mark.parametrize("fmt", sorted(FORMATS))
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
