"""The exact bytes of every text writer and binary container, edge values included.

Other tests parse outputs back with ``csv``/``json`` readers, which forgive a
change of line end or float format. These compare whole files, so CRLF
against LF and the ``repr`` of nan, inf, -0.0, 1e-300 and 1e22 are pinned
file by file. The DDL1, AFF1 and TOY1 containers are pinned by sha256.
"""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from denoiselab import AffineDenoiser, cli, init_toy, save_affine, save_toy, write_raw_f64
from denoiselab.distillation import losses_to_csv
from denoiselab.jacobian import JacobianReport, save_jacobian_report
from denoiselab.metrics import MetricSeries, series_to_csv, series_to_json
from denoiselab.sampler import Trajectory, trajectory_to_csv
from denoiselab.svg import plot_series

from conftest import fresh_interpreter, write_csv

NAN, INF = float("nan"), float("inf")
EDGE = np.array([NAN, INF, -0.0, 1e-300, 1e22, -INF, 5e-324, 0.1])
SERIES = MetricSeries(name="edge", sigmas=(INF, -0.0, 1e-300, NAN),
                      values=(1e22, -0.0, 1e-300, 0.1), n_samples=7, seed=3)


def _trajectory(tmp, monkeypatch):
    traj = Trajectory(sigmas=np.array([2.0, 1e-300, 0.0]), states=EDGE[:6].reshape(3, 2))
    trajectory_to_csv(traj, tmp / "t.csv")
    return [tmp / "t.csv"]


def _losses(tmp, monkeypatch):
    losses_to_csv(EDGE, tmp / "loss.csv")
    return [tmp / "loss.csv"]


def _series_csv(tmp, monkeypatch):
    series_to_csv(SERIES, tmp / "series.csv")
    return [tmp / "series.csv"]


def _series_json(tmp, monkeypatch):
    series_to_json(SERIES, tmp / "series.json")
    return [tmp / "series.json"]


def _jacobian(tmp, monkeypatch):
    report = JacobianReport(point=EDGE[:5], sigma=0.5,
                            singular_values=np.array([INF, 1e22, 1e-300, -0.0]),
                            left=np.eye(5)[:, :4], right=np.eye(5)[:, :4])
    return [save_jacobian_report(report, tmp)]


def _finals(tmp, monkeypatch):
    def fixed(den, schedule, x_T):
        return Trajectory(sigmas=np.array([1.0, 0.0]), states=np.stack([x_T, EDGE[:5]]))

    monkeypatch.setattr(cli, "ode_sample", fixed)
    data = write_csv(tmp / "d.csv", np.full((2, 5), 0.5))
    assert cli.main(["sample", "--data", str(data), "--denoiser", "multi-delta",
                     "--count", "2", "--out", str(tmp / "o")]) == 0
    return [tmp / "o" / "finals.csv"]


def _stats(tmp, monkeypatch):
    stats = SimpleNamespace(mean=EDGE[:5], eigvals=EDGE[3:8], basis=np.eye(5))
    monkeypatch.setattr(cli, "empirical_stats", lambda data: stats)
    data = write_csv(tmp / "d.csv", np.full((2, 5), 0.5))
    assert cli.main(["stats", "--data", str(data), "--out", str(tmp / "o")]) == 0
    return [tmp / "o" / "mean.csv", tmp / "o" / "eigvals.csv"]


CASES = {
    "trajectory_to_csv": (_trajectory, [
        b'step,sigma,x0,x1\r\n0,2.0,nan,inf\r\n1,1e-300,-0.0,1e-300\r\n'
        b'2,0.0,1e+22,-inf\r\n',
    ]),
    "losses_to_csv": (_losses, [
        b'step,loss\r\n0,nan\r\n1,inf\r\n2,-0.0\r\n3,1e-300\r\n4,1e+22\r\n5,-inf\r\n'
        b'6,5e-324\r\n7,0.1\r\n',
    ]),
    "series_to_csv": (_series_csv, [
        b'sigma,value,n,seed\r\ninf,1e+22,7,3\r\n-0.0,-0.0,7,3\r\n1e-300,1e-300,7,3\r\n'
        b'nan,0.1,7,3\r\n',
    ]),
    "series_to_json": (_series_json, [
        b'{\n  "n": 7,\n  "name": "edge",\n  "seed": 3,\n  "sigmas": [\n    Infinity,\n'
        b'    -0.0,\n    1e-300,\n    NaN\n  ],\n  "values": [\n    1e+22,\n    -0.0,\n'
        b'    1e-300,\n    0.1\n  ]\n}\n',
    ]),
    "save_jacobian_report": (_jacobian, [
        b'{\n  "left_file": "jacobian_left.f64",\n  "point": [\n    NaN,\n'
        b'    Infinity,\n    -0.0,\n    1e-300,\n    1e+22\n  ],\n'
        b'  "right_file": "jacobian_right.f64",\n  "sigma": 0.5,\n'
        b'  "singular_values": [\n    Infinity,\n    1e+22,\n    1e-300,\n    -0.0\n'
        b'  ]\n}\n',
    ]),
    "finals.csv": (_finals, [
        b'sample,x0,x1,x2,x3,x4\n0,nan,inf,-0.0,1e-300,1e+22\n'
        b'1,nan,inf,-0.0,1e-300,1e+22\n',
    ]),
    "mean.csv/eigvals.csv": (_stats, [
        b'nan\ninf\n-0.0\n1e-300\n1e+22\n',
        b'1e-300\n1e+22\n-inf\n5e-324\n0.1\n',
    ]),
}


@pytest.mark.parametrize("writer", sorted(CASES))
def test_writer_bytes_are_pinned(writer, tmp_path, monkeypatch):
    case, expected = CASES[writer]
    assert [p.read_bytes() for p in case(tmp_path, monkeypatch)] == expected


M = np.arange(6.0).reshape(2, 3) / 7.0
CONTAINERS = {
    "raw-f64 C-order": (
        lambda p: write_raw_f64(p, M),
        "d93de26eb86489f60bdb89e29e3844304026f65fb5a53bb3b610845dc125c2cb"),
    "raw-f64 Fortran-order": (
        lambda p: write_raw_f64(p, np.asfortranarray(M)),
        "d93de26eb86489f60bdb89e29e3844304026f65fb5a53bb3b610845dc125c2cb"),
    "raw-f64 int32": (
        lambda p: write_raw_f64(p, np.arange(-3, 3, dtype=np.int32).reshape(3, 2)),
        "d7a6d119b139a2624cabc7607af23570f53e219a886aaad1653dc34187c2b532"),
    "raw-f64 float32": (
        lambda p: write_raw_f64(p, (M / 3).astype(np.float32)),
        "9870681dd6b1fe1c107e5da4d264f691a1c7e11a2887cd4bfaec2f14d999fa8f"),
    "raw-f64 edge row": (
        lambda p: write_raw_f64(p, np.array([[NAN, -0.0, 5e-324, INF]])),
        "c7d837e828945d5d11e5f87c1bb889a3b633b4e9b9da2e6f7797d3d48c20990e"),
    "save_affine sigma unset": (
        lambda p: save_affine(AffineDenoiser(M[:, :2], M[1, :2]), p),
        "d79266a71a35653b90a050b64897277368bf5fa06ea8e7cdc2aad87e2a8b6591"),
    "save_affine sigma set": (
        lambda p: save_affine(AffineDenoiser(M[:, :2], M[1, :2], sigma=0.25), p),
        "ccb424133f51346e1305790fbd495e7a95876a15ee2c3f328254f34927947119"),
    "save_toy dae": (
        lambda p: save_toy(init_toy(3, 2, 4, "dae"), p),
        "d997efa236d568e4424c6d332f24cefb6882edac8cc821ef5900803a6dc7caa8"),
    "save_toy skip": (
        lambda p: save_toy(init_toy(4, 3, 2, "skip", sigma_data=0.75), p),
        "7def128a375d5fe2a7f575a7b3ecff45126f78296ffd690428f79c2272025457"),
}


@pytest.mark.parametrize("container", sorted(CONTAINERS))
def test_container_bytes_are_pinned(container, tmp_path):
    write, digest = CONTAINERS[container]
    write(tmp_path / "c")
    assert hashlib.sha256((tmp_path / "c").read_bytes()).hexdigest() == digest


def test_svg_escapes_the_title_and_series_names_byte_for_byte(tmp_path):
    # the digest of the file xml.sax.saxutils.escape gave: & first, then > and <
    series = [MetricSeries(name="a&b <c> d&amp;", sigmas=(0.002, 0.5, 80.0),
                           values=(0.25, 1.0, -0.5), n_samples=3, seed=1),
              MetricSeries(name=">&<", sigmas=(0.01, 1.0), values=(0.0, 0.75),
                           n_samples=3, seed=1)]
    plot_series(series, tmp_path / "s.svg", title="<T> & ]]> \"q\" 'a'")
    text = (tmp_path / "s.svg").read_bytes()
    assert b">&lt;T&gt; &amp; ]]&gt; \"q\" 'a'</text>" in text
    assert b">a&amp;b &lt;c&gt; d&amp;amp;</text>" in text
    assert hashlib.sha256(text).hexdigest() == \
        "e5e25b4d169cfe7b9e6893051c53b937b9fab253ce4cf3698a2d94adee063043"


def test_importing_the_cli_loads_no_network_stack():
    # xml.sax.saxutils imports urllib.request, and with it http.client, ssl and email
    _, modules = fresh_interpreter("import denoiselab.cli")
    assert "denoiselab.cli" in modules
    assert not modules & {"xml.sax", "urllib.request", "http.client", "ssl"}
