import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denoiselab import (
    DataMatrix,
    empirical_stats,
    load_dataset,
    read_raw_f64,
    split_dataset,
    write_raw_f64,
)
from denoiselab.errors import DimensionMismatchError, FormatError, ValueRangeError


def test_csv_parse(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,-1\n0,0\n")
    X = load_dataset(path, "csv")
    assert X.n_samples == 2 and X.dim == 2
    assert np.array_equal(X.values, [[1.0, -1.0], [0.0, 0.0]])


def test_csv_errors(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,0\n1,0,0\n")
    with pytest.raises(DimensionMismatchError):
        load_dataset(ragged, "csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("1,zebra\n")
    with pytest.raises(FormatError):
        load_dataset(bad, "csv")
    separator = tmp_path / "separator.csv"
    separator.write_text("0.1_5,0\n")  # float() would read 0.15
    with pytest.raises(FormatError):
        load_dataset(separator, "csv")
    out_of_range = tmp_path / "range.csv"
    out_of_range.write_text("1,2\n")
    with pytest.raises(ValueRangeError):
        load_dataset(out_of_range, "csv")
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "missing.csv", "csv")


def _write_pgm(path, pixels, width, height, maxval=255, comment=False):
    header = f"P5\n{width} {height}\n".encode()
    if comment:
        header = b"P5\n# a comment\n" + f"{width} {height}\n".encode()
    header += f"{maxval}\n".encode()
    path.write_bytes(header + bytes(pixels))


def test_pgm_endpoints(tmp_path):
    d = tmp_path / "imgs"
    d.mkdir()
    _write_pgm(d / "a.pgm", [255, 0, 128, 64], 2, 2, comment=True)
    X = load_dataset(d, "pgm-dir")
    assert X.values[0, 0] == 1.0
    assert X.values[0, 1] == -1.0
    assert np.isclose(X.values[0, 2], 128 / 127.5 - 1)


def test_pgm_dir_mismatch_and_header_errors(tmp_path):
    d = tmp_path / "imgs"
    d.mkdir()
    _write_pgm(d / "a.pgm", [0, 0], 2, 1)
    _write_pgm(d / "b.pgm", [0, 0, 0], 3, 1)
    with pytest.raises(DimensionMismatchError):
        load_dataset(d, "pgm-dir")
    (d / "b.pgm").unlink()
    (d / "c.pgm").write_bytes(b"P2\n2 1\n255\n aa")
    with pytest.raises(FormatError):
        load_dataset(d, "pgm-dir")
    (d / "c.pgm").unlink()
    _write_pgm(d / "short.pgm", [0], 2, 1)
    with pytest.raises(DimensionMismatchError):
        load_dataset(d, "pgm-dir")
    (d / "short.pgm").unlink()
    _write_pgm(d / "long.pgm", [0, 255, 0, 255], 2, 1)  # bytes past width * height
    with pytest.raises(DimensionMismatchError):
        load_dataset(d, "pgm-dir")
    (d / "long.pgm").unlink()
    # sizes and maxval are ASCII decimal digits, and width and height are at least 1
    for width, height, maxval, n_pixels in [("-2", "-3", 255, 6), ("1_0", "1", 255, 10),
                                            ("+2", "1", "+255", 2), ("0", "1", 255, 0)]:
        _write_pgm(d / "c.pgm", [0] * n_pixels, width, height, maxval)
        with pytest.raises(FormatError):
            load_dataset(d, "pgm-dir")


def test_raw_f64_roundtrip(tmp_path):
    values = np.random.default_rng(0).uniform(-1, 1, size=(5, 3))
    path = tmp_path / "d.f64"
    write_raw_f64(path, values)
    assert np.array_equal(read_raw_f64(path), values)
    assert np.array_equal(load_dataset(path, "raw-f64").values, values)


def test_raw_f64_payload_mismatch(tmp_path):
    import struct

    path = tmp_path / "bad.f64"
    payload = np.zeros(11).tobytes()  # header says 3x4 = 12 values
    path.write_bytes(b"DDL1" + struct.pack("<II", 3, 4) + payload)
    with pytest.raises(DimensionMismatchError):
        load_dataset(path, "raw-f64")
    (tmp_path / "magic.f64").write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(FormatError):
        load_dataset(tmp_path / "magic.f64", "raw-f64")


def test_data_matrix_validation():
    with pytest.raises(ValueRangeError):
        DataMatrix(np.array([[np.nan, 0.0]]))
    with pytest.raises(DimensionMismatchError):
        DataMatrix(np.zeros((0, 3)))


def test_two_point_stats(two_point_stats):
    st = two_point_stats
    assert np.allclose(st.mean, [0.0, 0.0])
    assert np.allclose(st.eigvals, [1.0, 0.0])
    # sign convention makes the leading component +e1
    assert np.allclose(st.basis[:, 0], [1.0, 0.0])
    assert st.rank == 2
    assert st.positive_rank == 1


def test_single_point_stats():
    y = np.array([[0.3, -0.7, 0.1]])
    st = empirical_stats(DataMatrix(y))
    assert np.allclose(st.mean, y[0])
    assert np.all(st.eigvals == 0.0)


def test_stats_concentration_against_direct_covariance():
    rng = np.random.default_rng(7)
    Y = rng.standard_normal((100_000, 4))
    st = empirical_stats(DataMatrix(Y))
    assert np.all(st.eigvals >= 0.9) and np.all(st.eigvals <= 1.1)
    # oracle: accumulate the covariance directly and eigendecompose it
    centered = Y - Y.mean(axis=0)
    direct = np.linalg.eigvalsh(centered.T @ centered / Y.shape[0])[::-1]
    assert np.allclose(st.eigvals, direct, rtol=1e-8, atol=1e-12)


def test_reconstruction_and_trace_invariants(rng):
    Y = rng.uniform(-1, 1, size=(40, 7))
    X = DataMatrix(Y)
    st = empirical_stats(X)
    centered = Y - Y.mean(axis=0)
    cov = centered.T @ centered / Y.shape[0]
    rel = np.linalg.norm(st.covariance() - cov) / np.linalg.norm(cov)
    assert rel < 1e-8
    mean_sq = float((centered**2).sum(axis=1).mean())
    assert abs(st.eigvals.sum() - mean_sq) < 1e-8 * mean_sq


def test_stats_permutation_invariance(rng):
    Y = rng.uniform(-1, 1, size=(25, 5))
    st1 = empirical_stats(DataMatrix(Y))
    st2 = empirical_stats(DataMatrix(Y[rng.permutation(25)]))
    assert np.allclose(st1.mean, st2.mean)
    assert np.allclose(st1.eigvals, st2.eigvals, atol=1e-8)
    # basis agrees up to column sign
    dots = np.abs(np.sum(st1.basis * st2.basis, axis=0))
    assert np.allclose(dots, 1.0, atol=1e-8)


def test_rank_bounds_and_duplicates():
    rng = np.random.default_rng(3)
    Y = rng.uniform(-1, 1, size=(4, 9))
    st = empirical_stats(DataMatrix(Y))
    assert st.rank <= min(4, 9)
    dup = np.vstack([Y, Y[0]])
    st_dup = empirical_stats(DataMatrix(dup))
    assert st_dup.positive_rank < dup.shape[0]


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 20), st.integers(1, 6), st.integers(0, 10_000))
def test_trace_identity_property(n, d, seed):
    Y = np.random.default_rng(seed).uniform(-1, 1, size=(n, d))
    stats = empirical_stats(DataMatrix(Y))
    centered = Y - Y.mean(axis=0)
    mean_sq = float((centered**2).sum(axis=1).mean())
    assert abs(stats.eigvals.sum() - mean_sq) <= 1e-8 * max(mean_sq, 1e-12)


def test_split_sizes_and_determinism(rng):
    X = DataMatrix(rng.uniform(-1, 1, size=(10, 3)))
    a, b = split_dataset(X, seed=5, fraction=0.5)
    assert a.n_samples == 5 and b.n_samples == 5
    a2, b2 = split_dataset(X, seed=5, fraction=0.5)
    assert np.array_equal(a.values, a2.values) and np.array_equal(b.values, b2.values)
    # disjoint parts whose union is the original multiset of rows
    merged = np.vstack([a.values, b.values])
    assert np.array_equal(np.sort(merged, axis=0), np.sort(X.values, axis=0))


def test_split_floor_rule_and_errors(rng):
    X = DataMatrix(rng.uniform(-1, 1, size=(10, 2)))
    a, b = split_dataset(X, seed=0, fraction=0.99)
    assert (a.n_samples, b.n_samples) == (9, 1)
    with pytest.raises(ValueRangeError):
        split_dataset(X, seed=0, fraction=0.01)  # floor gives an empty part
    with pytest.raises(ValueRangeError):
        split_dataset(X, seed=0, fraction=1.5)


def test_split_seed_changes_partition(rng):
    X = DataMatrix(rng.uniform(-1, 1, size=(64, 2)))
    a1, _ = split_dataset(X, seed=1, fraction=0.5)
    a2, _ = split_dataset(X, seed=2, fraction=0.5)
    assert not np.array_equal(a1.values, a2.values)
