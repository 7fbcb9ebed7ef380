"""Dataset ingestion, empirical Gaussian statistics and the file writers.

A dataset is a plain matrix of N training vectors in R^d. Its empirical mean
and covariance eigendecomposition are what the closed-form denoisers consume.
All operations here are pure; the returned objects are treated as immutable
and are safe for concurrent reads.

Every output file is written by ``write_container`` (the DDL1, AFF1 and TOY1
binary containers), ``write_csv`` (floats as their shortest round-trip
``repr``) or ``write_json``; every container is read by ``read_container``.
"""

from __future__ import annotations

import json
import math
import struct
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, FormatError, ValueRangeError

RAW_F64_MAGIC = b"DDL1"
RAW_F64_HEADER = "<II"  # N, d

#: eigenvalues below this fraction of the largest are clamped to exactly 0
_EIGVAL_CLAMP_REL = 1e-12


@dataclass(frozen=True)
class DataMatrix:
    """N training vectors of dimension d, the empirical data distribution."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise DimensionMismatchError(
                f"data matrix must be 2-D with at least one row and column, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueRangeError("data matrix contains non-finite entries")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def noisy_rows(X: DataMatrix, sigma: float, n: int, rng: np.random.Generator,
               out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(rows, rows + sigma * noise) for n rows of X drawn with replacement.

    Row indices are drawn first, then the normals, so seeded callers agree bit for bit.
    The noisy rows are written to ``out`` (a C-contiguous n x d float64 array) when
    it is given, and to a new array otherwise.
    """
    rows = X.values[rng.integers(0, X.n_samples, size=n)]
    noisy = rng.standard_normal((n, X.dim), out=out)
    noisy *= sigma
    noisy += rows
    return rows, noisy


@dataclass(frozen=True)
class GaussianStats:
    """Empirical mean plus the eigendecomposition of the empirical covariance.

    ``basis`` holds r orthonormal columns and ``eigvals`` the matching
    variances, sorted descending; together they reconstruct the covariance as
    basis @ diag(eigvals) @ basis.T.
    """

    mean: np.ndarray
    basis: np.ndarray
    eigvals: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        basis = np.asarray(self.basis, dtype=np.float64)
        eigvals = np.asarray(self.eigvals, dtype=np.float64)
        if mean.ndim != 1 or basis.ndim != 2 or eigvals.ndim != 1:
            raise DimensionMismatchError("mean must be 1-D, basis 2-D, eigvals 1-D")
        d, r = basis.shape
        if mean.shape[0] != d or eigvals.shape[0] != r:
            raise DimensionMismatchError(
                f"inconsistent shapes: mean {mean.shape}, basis {basis.shape}, eigvals {eigvals.shape}"
            )
        if np.any(eigvals < -1e-12):
            raise ValueRangeError("negative eigenvalue beyond tolerance")
        eigvals = np.where(eigvals < 0.0, 0.0, eigvals)
        if np.any(np.diff(eigvals) > 0):
            raise ValueRangeError("eigenvalues must be sorted descending")
        gram = basis.T @ basis
        if np.linalg.norm(gram - np.eye(r)) > 1e-10:
            raise ValueRangeError("basis columns are not orthonormal")
        for a in (mean, basis, eigvals):
            a.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "eigvals", eigvals)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        """Number of retained components (columns of ``basis``)."""
        return self.basis.shape[1]

    @property
    def positive_rank(self) -> int:
        """Number of strictly positive eigenvalues, i.e. rank of the covariance."""
        return int(np.count_nonzero(self.eigvals > 0.0))

    def covariance(self) -> np.ndarray:
        """Dense d x d covariance, reconstructed from the retained components."""
        return (self.basis * self.eigvals) @ self.basis.T


def write_container(path: str | Path, magic: bytes, header: str, fields: tuple,
                    arrays: Iterable[np.ndarray]) -> None:
    """Write a binary container: ``magic``, then ``fields`` packed by the struct
    format ``header``, then each array as little-endian f64, row-major."""
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack(header, *fields))
        for a in arrays:
            fh.write(np.asarray(a, dtype="<f8").tobytes())


def read_container(path: str | Path, magic: bytes, header: str,
                   shapes) -> tuple[tuple, list[np.ndarray]]:
    """Read a container written by ``write_container``: (fields, arrays).

    ``shapes(*fields)`` gives the array shapes and raises ``FormatError`` for
    fields the format refuses. The payload must hold exactly the declared
    values; that is checked before anything is allocated. The arrays are
    writable float64 copies.
    """
    blob = Path(path).read_bytes()
    start = len(magic) + struct.calcsize(header)
    if len(blob) < start:
        raise FormatError(f"{path}: too short for a {magic.decode()} header")
    if blob[:len(magic)] != magic:
        raise FormatError(f"{path}: bad magic {blob[:len(magic)]!r}, expected {magic!r}")
    fields = struct.unpack_from(header, blob, len(magic))
    declared = shapes(*fields)
    sizes = [math.prod(shape) for shape in declared]  # Python ints: u32 * u32 overflows int64
    if len(blob) - start != 8 * sum(sizes):
        raise DimensionMismatchError(f"{path}: header declares {sum(sizes)} values but "
                                     f"the payload holds {len(blob) - start} bytes")
    arrays = []
    for shape, size in zip(declared, sizes):
        arrays.append(np.frombuffer(blob, "<f8", size, start).reshape(shape).astype(np.float64))
        start += 8 * size
    return fields, arrays


def write_raw_f64(path: str | Path, values: np.ndarray) -> None:
    """Write a matrix in the raw-f64 (DDL1) container: u32 N, u32 d, N x d values."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise DimensionMismatchError("raw-f64 container stores 2-D matrices")
    write_container(path, RAW_F64_MAGIC, RAW_F64_HEADER, values.shape, [values])


def write_csv(path: str | Path, header: str | None, rows: Iterable[list], end: str) -> None:
    """Write ``header`` (unless None), then each row of Python ints and floats.

    Values are comma-joined ``repr`` strings, so floats round-trip exactly;
    ``end`` ends every line.
    """
    with open(path, "w", newline="") as fh:
        if header is not None:
            fh.write(header + end)
        fh.writelines(repr(row)[1:-1].replace(", ", ",") + end for row in rows)


def write_json(path: str | Path, obj) -> None:
    """Write ``obj`` as JSON with 2-space indent, sorted keys and a final newline."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_raw_f64(path: str | Path) -> np.ndarray:
    """Read a matrix from the raw-f64 container, validating magic and size."""
    _, (values,) = read_container(path, RAW_F64_MAGIC, RAW_F64_HEADER,
                                  lambda n, d: [(n, d)])
    return values


def _read_pgm(path: Path) -> np.ndarray:
    """Parse a binary (P5) PGM image into a flat float vector in [-1, 1]."""
    blob = path.read_bytes()
    pos = 0

    def next_token():
        nonlocal pos
        while pos < len(blob):
            c = blob[pos : pos + 1]
            if c == b"#":  # comment runs to end of line
                while pos < len(blob) and blob[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif c.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated PGM header")
        return blob[start:pos]

    if next_token() != b"P5":
        raise FormatError(f"{path}: not a binary PGM (P5) file")
    tokens = [next_token() for _ in range(3)]
    if not all(t.isdigit() for t in tokens):  # ASCII digits only: no sign, no "_"
        raise FormatError(f"{path}: malformed PGM header {b' '.join(tokens)!r}")
    width, height, maxval = map(int, tokens)
    if width < 1 or height < 1:
        raise FormatError(f"{path}: PGM size {width}x{height} holds no pixels")
    if maxval != 255:
        raise FormatError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    pos += 1  # single whitespace byte after maxval
    pixels = blob[pos:]  # exactly width * height bytes: one image per file
    if len(pixels) != width * height:
        raise DimensionMismatchError(
            f"{path}: expected {width * height} pixels, found {len(pixels)}"
        )
    raw = np.frombuffer(pixels, dtype=np.uint8).astype(np.float64)
    return raw / 127.5 - 1.0


def _check_range(values: np.ndarray, source: str) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueRangeError(f"{source}: non-finite value in input")
    if np.any(np.abs(values) > 1.0):
        bad = float(np.max(np.abs(values)))
        raise ValueRangeError(f"{source}: value with magnitude {bad} outside [-1, 1]")


def load_dataset(path: str | Path, format: str) -> DataMatrix:
    """Load a dataset from disk.

    Formats: ``csv`` (ASCII, comma-separated, one sample per line), ``raw-f64``
    (the DDL1 container), ``pgm-dir`` (directory of same-sized binary PGM
    images, pixels mapped by p/127.5 - 1). CSV and raw values must already
    lie in [-1, 1]; they are validated, not rescaled.
    """
    path = Path(path)
    if format == "csv":
        if not path.is_file():
            raise FileNotFoundError(path)
        try:
            text = path.read_text(encoding="ascii")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not an ASCII CSV file") from exc
        rows = []
        width = None
        for lineno, line in enumerate(text.split("\n"), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if "_" in line:  # float() reads Python's digit separator: 1_0 is 10
                    raise ValueError(line)
                row = [float(tok) for tok in line.split(",")]
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: unparseable value") from exc
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DimensionMismatchError(
                    f"{path}:{lineno}: row has {len(row)} values, expected {width}"
                )
            rows.append(row)
        if not rows:
            raise FormatError(f"{path}: empty CSV dataset")
        values = np.array(rows, dtype=np.float64)
        _check_range(values, str(path))
        return DataMatrix(values)
    if format == "raw-f64":
        values = read_raw_f64(path)
        _check_range(values, str(path))
        return DataMatrix(values)
    if format == "pgm-dir":
        if not path.is_dir():
            raise FileNotFoundError(path)
        files = sorted(p for p in path.iterdir() if p.suffix.lower() == ".pgm")
        if not files:
            raise FormatError(f"{path}: no .pgm files in directory")
        vectors = [_read_pgm(p) for p in files]
        dims = {v.shape[0] for v in vectors}
        if len(dims) != 1:
            raise DimensionMismatchError(f"{path}: images differ in size: {sorted(dims)}")
        return DataMatrix(np.stack(vectors))
    raise ValueError(f"unknown dataset format {format!r}")


def empirical_stats(X: DataMatrix) -> GaussianStats:
    """Mean and covariance eigendecomposition of a dataset.

    The covariance (divisor N) is never formed densely; a thin SVD of the
    centered data scaled by 1/sqrt(N) gives the eigenpairs directly, which is
    stabler and cheaper when N < d. Each basis column is sign-flipped so its
    largest-magnitude entry is positive, making the output reproducible.
    Trailing eigenvalues below 1e-12 of the largest are clamped to exactly 0.
    """
    Y = X.values
    mean = Y.mean(axis=0)
    centered = (Y - mean) / np.sqrt(X.n_samples)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    eigvals = s**2
    if eigvals.size and eigvals[0] > 0:
        eigvals[eigvals < _EIGVAL_CLAMP_REL * eigvals[0]] = 0.0
    else:
        eigvals[:] = 0.0
    basis = vt.T
    flip = np.sign(basis[np.argmax(np.abs(basis), axis=0), np.arange(basis.shape[1])])
    flip[flip == 0] = 1.0
    basis = basis * flip
    return GaussianStats(mean=mean, basis=basis, eigvals=eigvals)


def split_dataset(X: DataMatrix, seed: int, fraction: float) -> tuple[DataMatrix, DataMatrix]:
    """Deterministically split rows into two disjoint parts.

    The first part gets floor(fraction * N) rows of a seeded shuffle; both
    parts must be nonempty.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueRangeError(f"fraction must be in (0, 1), got {fraction}")
    n_first = int(np.floor(fraction * X.n_samples))
    if n_first < 1 or n_first >= X.n_samples:
        raise ValueRangeError(
            f"fraction {fraction} leaves an empty part for N={X.n_samples}"
        )
    perm = np.random.default_rng(seed).permutation(X.n_samples)
    return (
        DataMatrix(X.values[perm[:n_first]]),
        DataMatrix(X.values[perm[n_first:]]),
    )
