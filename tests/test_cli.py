import errno
import functools
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import denoiselab
from denoiselab import cli, load_affine, read_raw_f64
from denoiselab.cli import main
from denoiselab.errors import PluginExitError
from denoiselab.sampler import Trajectory, ode_sample
from denoiselab.verify import SUITES, suite_memorize
from denoiselab.synth import cluster_dataset

from conftest import NAN_BELOW_ONE, plugin_spec, write_csv


@pytest.fixture
def two_point_csv(tmp_path):
    return str(write_csv(tmp_path / "two.csv", [[1.0, 0.0], [-1.0, 0.0]]))


@pytest.fixture
def cluster_csv(tmp_path):
    X = cluster_dataset(42, 32, 8, n_clusters=2, spread=0.08)
    return str(write_csv(tmp_path / "clusters.csv", X.values))


def _read_all(outdir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir()) if p.is_file()}


def test_stats_two_point_fixture(tmp_path, two_point_csv):
    out = tmp_path / "out"
    assert main(["stats", "--data", two_point_csv, "--out", str(out)]) == 0
    eig = [float(line) for line in (out / "eigvals.csv").read_text().split()]
    assert eig == [1.0, 0.0]
    basis = read_raw_f64(out / "basis.f64")
    assert basis.shape == (2, 2)
    assert np.allclose(np.abs(basis[0]), [1.0, 0.0])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "stats"
    assert "eigvals.csv" in manifest["outputs"]


def test_stats_missing_file_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    code = main(["stats", "--data", missing, "--out", str(tmp_path / "o")])
    assert code == 3
    assert "nope.csv" in capsys.readouterr().err


def test_stats_rerun_is_byte_identical(tmp_path, two_point_csv):
    out = tmp_path / "o"
    main(["stats", "--data", two_point_csv, "--out", str(out)])
    first = _read_all(out)
    main(["stats", "--data", two_point_csv, "--out", str(out)])
    second = _read_all(out)
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], name


def test_sample_count_zero_is_usage_error(tmp_path, two_point_csv, capsys):
    code = main(["sample", "--data", two_point_csv, "--denoiser", "multi-delta",
                 "--count", "0", "--out", str(tmp_path / "o")])
    assert code == 2


def test_sample_multi_delta_lands_on_training_rows(tmp_path, cluster_csv):
    out = tmp_path / "out"
    code = main(["sample", "--data", cluster_csv, "--denoiser", "multi-delta",
                 "--count", "6", "--seed", "3", "--steps", "40", "--raw",
                 "--out", str(out)])
    assert code == 0
    finals = read_raw_f64(out / "finals.f64")
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in Path(cluster_csv).read_text().strip().splitlines()])
    for final in finals:
        rel = np.linalg.norm(rows - final, axis=1) / np.linalg.norm(rows, axis=1)
        assert rel.min() <= 1e-2
    assert (out / "trajectory_0005.csv").exists()


def test_sample_oracle_report_matches_recomputation(tmp_path, cluster_csv):
    out = tmp_path / "out"
    code = main(["sample", "--data", cluster_csv, "--denoiser", "gaussian",
                 "--count", "3", "--seed", "1", "--steps", "400", "--oracle",
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    gap = report["max_final_rel_error"]
    assert 0 < gap < 1e-2  # first-order integration error at 400 steps
    # recompute one trajectory pair from the emitted files
    euler = np.array([[float(v) for v in line.split(",")[2:]] for line in
                      (out / "trajectory_0000.csv").read_text().splitlines()[1:]])
    oracle = np.array([[float(v) for v in line.split(",")[2:]] for line in
                       (out / "oracle_trajectory_0000.csv").read_text().splitlines()[1:]])
    rel = np.linalg.norm(euler[-1] - oracle[-1]) / np.linalg.norm(oracle[-1])
    assert rel <= gap + 1e-12


def test_sample_oracle_is_refused_before_the_denoiser_is_built(tmp_path, capsys):
    # building this denoiser would fail to start the command and exit 3
    out = tmp_path / "o"
    code = main(["sample", "--denoiser", "external:no-such-denoiser-command", "--dim", "3",
                 "--oracle", "--out", str(out)])
    assert code == 2
    assert "--oracle only applies to the gaussian denoiser" in capsys.readouterr().err
    assert not out.exists()


def test_sample_rerun_from_manifest_config(tmp_path, cluster_csv):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["sample", "--data", cluster_csv, "--denoiser", "multi-delta",
          "--count", "2", "--seed", "7", "--steps", "12", "--out", str(out1)])
    manifest = out1 / "manifest.json"
    code = main(["sample", "--config", str(manifest), "--out", str(out2)])
    assert code == 0
    a, b = _read_all(out1), _read_all(out2)
    assert a.keys() == b.keys()
    for name in a:
        if name != "manifest.json":  # differs only in the out path
            assert a[name] == b[name], name
    # replaying the manifest into its own directory reproduces it exactly
    first = manifest.read_bytes()
    assert main(["sample", "--config", str(manifest), "--out", str(out1)]) == 0
    assert manifest.read_bytes() == first


def test_distill_report_and_checkpoint_roundtrip(tmp_path, cluster_csv):
    out = tmp_path / "out"
    code = main(["distill", "--data", cluster_csv, "--teacher", "multi-delta",
                 "--sigmas", "1.0", "--steps", "4000", "--batch", "32",
                 "--lr", "0.005", "--seed", "2", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["1"]["weight_nmse_vs_closed_form"] < 0.05
    den = load_affine(out / "affine_sigma1.aff1")
    assert den.sigma == 1.0
    loss_lines = (out / "loss_sigma1.csv").read_text().strip().splitlines()
    assert len(loss_lines) == 4001  # header + one line per step
    first_loss = float(loss_lines[1].split(",")[1])
    last_loss = float(loss_lines[-1].split(",")[1])
    assert last_loss < first_loss


def test_distill_sigmas_that_share_a_file_name_exit_2(tmp_path, cluster_csv, capsys):
    out = tmp_path / "out"
    code = main(["distill", "--data", cluster_csv, "--sigmas", "1,1.0",
                 "--steps", "10", "--out", str(out)])
    assert code == 2
    assert "sigmas 1.0, 1.0" in capsys.readouterr().err
    assert not out.exists()


def test_distill_distinct_sigmas_name_one_file_each(tmp_path, cluster_csv):
    out = tmp_path / "out"
    code = main(["distill", "--data", cluster_csv, "--sigmas", "0.5,1,4",
                 "--steps", "10", "--out", str(out)])
    assert code == 0
    tags = ["0.5", "1", "4"]
    names = sorted([f"affine_sigma{t}.aff1" for t in tags]
                   + [f"loss_sigma{t}.csv" for t in tags] + ["report.json"])
    assert json.loads((out / "manifest.json").read_text())["outputs"] == names
    assert sorted(json.loads((out / "report.json").read_text())) == tags
    assert sorted(p.name for p in out.iterdir()) == sorted(names + ["manifest.json"])


def test_distill_bad_checkpoint_magic(tmp_path, cluster_csv, capsys):
    bad = tmp_path / "bad.aff1"
    bad.write_bytes(b"NOPE" + bytes(32))
    code = main(["sample", "--data", cluster_csv,
                 "--denoiser", f"affine:{bad}", "--count", "1",
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "magic" in capsys.readouterr().err


def test_metrics_identical_denoisers_all_zero(tmp_path, cluster_csv):
    out = tmp_path / "out"
    code = main(["metrics", "--data", cluster_csv, "--metric", "score-diff",
                 "--denoiser", "gaussian", "--denoiser2", "gaussian",
                 "--n", "20", "--out", str(out)])
    assert code == 0
    rows = (out / "series.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 10
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)


def test_metrics_linearity_of_centered_gaussian_all_ones(tmp_path, two_point_csv):
    out = tmp_path / "out"
    code = main(["metrics", "--data", two_point_csv, "--metric", "linearity",
                 "--denoiser", "gaussian", "--n", "40", "--svg",
                 "--out", str(out)])
    assert code == 0
    rows = (out / "series.csv").read_text().strip().splitlines()[1:]
    assert all(abs(float(r.split(",")[1]) - 1.0) < 1e-9 for r in rows)
    root = ET.parse(out / "series.svg").getroot()
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 1


def test_metrics_flags_win_over_config(tmp_path, cluster_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"metric": "linearity", "n": 10, "steps": 4}))
    out = tmp_path / "out"
    code = main(["metrics", "--data", cluster_csv, "--config", str(cfg),
                 "--denoiser", "gaussian", "--steps", "6", "--out", str(out)])
    assert code == 0
    series = json.loads((out / "series.json").read_text())
    assert len(series["sigmas"]) == 6  # flag wins over the config's 4
    assert series["n"] == 10  # config fills what flags leave unset


def test_verify_negative_tolerance_is_usage_error(capsys):
    assert main(["verify", "--suite", "memorize", "--tolerance", "-1"]) == 2
    assert "tolerance" in capsys.readouterr().err
    assert main(["verify", "--suite", "memorize", "--tolerance", "nan"]) == 2
    assert "tolerance must be positive, got nan" in capsys.readouterr().err


def test_verify_orthogonality_suite_passes(capsys):
    code = main(["verify", "--suite", "orthogonality", "--n-samples", "4000"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 6 and "FAIL" not in out


def test_verify_memorize_suite_passes(capsys):
    code = main(["verify", "--suite", "memorize", "--n-starts", "25"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS memorize/gl-score" in out


def test_verify_memorize_suite_makes_no_starts_by_rows_by_dim_temporary():
    suite_memorize(n_samples=50)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        suite_memorize(n_samples=2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a 100 x 2000 x 16 float64 temporary is 25.6 MB; the suite peaks at 3.3 MB
    assert peak < 20e6


# hits of 100 starts at seed 0, 1e-2 down to 1e-12: 98, 11, then 0 at dim 1; 100, 93 to 77 at dim 2
@pytest.mark.parametrize("tolerance", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("dim", [1, 2])
def test_verify_memorize_hits_match_the_nearest_row_by_relative_distance(monkeypatch, dim,
                                                                         tolerance):
    runs = []

    def keep(D, schedule, x_T):
        trajectory = ode_sample(D, schedule, x_T)
        runs.append((D.data.values, trajectory.final))
        return trajectory

    monkeypatch.setattr(denoiselab.verify, "ode_sample", keep)
    hits = suite_memorize(dim=dim, n_samples=2000, tolerance=tolerance)[0].value
    (Y, finals), = runs
    rel = np.linalg.norm(Y - finals[:, None, :], axis=2) / np.linalg.norm(Y, axis=1)
    assert hits == np.count_nonzero(rel.min(axis=1) <= tolerance)


@pytest.mark.parametrize("argv", [["--suite", "memorize", "--n-starts", "0"],
                                  ["--suite", "memorize", "--n-starts", "-1"],
                                  ["--suite", "trajectory", "--n-seeds", "0"],
                                  ["--suite", "trajectory", "--n-seeds", "-1"]])
def test_verify_without_starts_exits_3(capsys, argv):
    assert main(["verify", *argv]) == 3
    name = argv[2][2:].replace("-", "_")
    assert f"{name} must be at least 1, got {argv[3]}" in capsys.readouterr().err


def test_sample_from_toy_checkpoint_without_data(tmp_path):
    import numpy as np

    from denoiselab import DataMatrix, init_toy, save_toy, train_toy

    X = DataMatrix(np.random.default_rng(0).uniform(-1, 1, size=(8, 3)))
    model = init_toy(1, 3, 8, "skip")
    train_toy(model, X, sigma=0.5, steps=50, batch=4, lr=1e-3, seed=2)
    ckpt = tmp_path / "model.toy1"
    save_toy(model, ckpt)
    out = tmp_path / "out"
    code = main(["sample", "--denoiser", f"toy:{ckpt}", "--count", "2",
                 "--sigma-max", "5", "--steps", "6", "--raw", "--out", str(out)])
    assert code == 0
    finals = read_raw_f64(out / "finals.f64")
    assert finals.shape == (2, 3) and np.all(np.isfinite(finals))


def test_verify_trajectory_suite_passes_euler_and_fails_a_wrong_sampler(capsys, monkeypatch):
    # Euler meets its own per-eigenmode closed form and halves its error from 200 to 400 steps
    assert main(["verify", "--suite", "trajectory", "--n-seeds", "4"]) == 0
    out = capsys.readouterr().out
    for check in ("euler-closed-form-relgap@400steps", "error-decreases@10->50",
                  "error-decreases@200->400", "error-ratio-minus-2@200->400"):
        assert f"PASS trajectory/{check}" in out
    assert "FAIL" not in out

    def late_sample(D, schedule, x_T):  # a wrong step: D is evaluated at the next level
        levels = np.append(schedule.values, schedule.values[-1])
        x = np.array(x_T, dtype=np.float64)
        for t, t_next in zip(schedule.values, levels[1:]):
            x = (t_next / t) * x + (1.0 - t_next / t) * D.evaluate_batch(x, float(t_next))
        return Trajectory(sigmas=np.array([0.0]), states=x[None])

    monkeypatch.setattr(denoiselab.verify, "ode_sample", late_sample)
    assert main(["verify", "--suite", "trajectory", "--n-seeds", "4"]) == 1
    assert "FAIL trajectory/euler-closed-form-relgap@400steps" in capsys.readouterr().out
    # the gap tolerance is the --tolerance flag
    assert main(["verify", "--suite", "trajectory", "--n-seeds", "4", "--tolerance", "10"]) == 0


def test_external_denoiser_failure_maps_to_plugin_exit_code(tmp_path, cluster_csv):
    code = main(["sample", "--data", cluster_csv,
                 "--denoiser", "external:python3 -c pass",
                 "--count", "1", "--out", str(tmp_path / "o")])
    assert code == 4


@pytest.mark.parametrize("error, message", [
    (OSError(errno.EPIPE, "Broken pipe"), "error: [Errno 32] Broken pipe (step=0, sigma=2.0)\n"),
    (PluginExitError("gone"),
     "plugin error: denoiser failed at step 0 (sigma=2.0): gone\n"),
], ids=["two-argument-oserror", "one-argument-error-names-both"])
def test_failure_message_names_the_step_and_sigma_once(tmp_path, cluster_csv, capsys,
                                                       monkeypatch, error, message):
    def fail(self, X, sigma):
        raise error

    monkeypatch.setattr(denoiselab.GaussianDenoiser, "evaluate_batch", fail)
    code = main(["sample", "--data", cluster_csv, "--denoiser", "gaussian", "--steps", "3",
                 "--sigma-max", "2", "--out", str(tmp_path / "o")])
    assert code == (3 if isinstance(error, OSError) else 4)
    assert capsys.readouterr().err == message


def test_unknown_denoiser_spec_is_usage_error(tmp_path, cluster_csv):
    code = main(["sample", "--data", cluster_csv, "--denoiser", "wavelet",
                 "--count", "1", "--out", str(tmp_path / "o")])
    assert code == 2


def test_default_outdir_from_environment(tmp_path, two_point_csv, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("DENOISELAB_OUT", str(target))
    assert main(["stats", "--data", two_point_csv]) == 0
    assert (target / "eigvals.csv").exists()


def test_verify_flags_reach_a_wrapped_suite(monkeypatch):
    seen = {}

    def suite(seed=0, dim=16, steps=100):
        seen.update(seed=seed, dim=dim, steps=steps)
        return []

    @functools.wraps(suite)
    def wrapped(*args, **kwargs):
        return suite(*args, **kwargs)

    monkeypatch.setitem(SUITES, "trajectory", wrapped)
    assert main(["verify", "--suite", "trajectory", "--steps", "7", "--dim", "4"]) == 0
    assert seen == {"seed": 0, "dim": 4, "steps": 7}


@pytest.mark.parametrize("suite, flags, refused", [
    ("theorem1", ["--n-starts", "3"], "--n-starts"),
    ("trajectory", ["--steps", "3"], "--steps"),
    ("memorize", ["--n-seeds", "3"], "--n-seeds"),
    ("orthogonality", ["--tolerance", "0.5"], "--tolerance"),
    ("orthogonality", ["--tolerance", "0.5", "--n-starts", "5", "--steps", "3",
                       "--n-samples", "200"], "--n-starts, --steps, --tolerance"),
])
def test_verify_refuses_flags_its_suite_does_not_take(tmp_path, capsys, suite, flags, refused):
    out = tmp_path / "o"
    code = main(["verify", "--suite", suite, *flags, "--seed", "1", "--out", str(out)])
    assert code == 2
    assert f"suite {suite} takes no {refused}\n" in capsys.readouterr().err
    assert not out.exists()


def test_config_that_is_not_an_object_is_usage_error(tmp_path, cluster_csv, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([1, 2]))
    code = main(["sample", "--data", cluster_csv, "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "not a JSON object" in capsys.readouterr().err


def test_config_with_unknown_key_is_usage_error(tmp_path, cluster_csv, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_stepz": 5, "n": 10}))
    code = main(["metrics", "--data", cluster_csv, "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "n_stepz" in err and "not metrics flags" in err
    assert not (tmp_path / "o").exists()


def test_manifest_of_another_subcommand_is_usage_error(tmp_path, cluster_csv, capsys):
    out = tmp_path / "stats"
    assert main(["stats", "--data", cluster_csv, "--out", str(out)]) == 0
    code = main(["sample", "--config", str(out / "manifest.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "'stats' manifest, not 'sample'" in capsys.readouterr().err


def _run_cli(argv: list[str], capsys) -> tuple[int, str]:
    """Exit code and stderr of one run; argparse rejects a flag by SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize("subcommand, config, flags, recorded", [
    ("sample", {"count": "2"}, ["--count", "2"], 2),
    ("sample", {"steps": "abc"}, ["--steps", "abc"], None),
    ("sample", {"count": 2.5}, ["--count", "2.5"], None),
    ("sample", {"format": "xls"}, ["--format", "xls"], None),
    ("sample", {"oracle": "yes"}, ["--oracle=yes"], None),
    ("metrics", {"metric": "bogus"}, ["--metric", "bogus"], None),
    ("distill", {"sigmas": [0.5, 1]}, ["--sigmas", "0.5,1"], "0.5,1"),
    ("sample", {"seed": None}, [], 0),
])
def test_config_values_are_read_as_flags(tmp_path, cluster_csv, capsys,
                                         subcommand, config, flags, recorded):
    # a config value behaves exactly as the same value given as a flag
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    base = [subcommand, "--data", cluster_csv]
    if subcommand == "distill":
        base += ["--steps", "100", "--batch", "8"]
    by_config, by_flags = tmp_path / "out-config", tmp_path / "out-flags"
    result = _run_cli(base + ["--config", str(cfg), "--out", str(by_config)], capsys)
    assert result == _run_cli(base + flags + ["--out", str(by_flags)], capsys)
    (key,) = config
    code, err = result
    if recorded is None:
        assert code == 2 and f"argument --{key}:" in err
        assert not by_config.exists() and not by_flags.exists()
        return
    assert code == 0
    a, b = _read_all(by_config), _read_all(by_flags)
    a["manifest.json"] = a["manifest.json"].replace(str(by_config).encode(), b"OUT")
    b["manifest.json"] = b["manifest.json"].replace(str(by_flags).encode(), b"OUT")
    assert a == b
    assert json.loads(a["manifest.json"])["flags"][key] == recorded


@pytest.mark.parametrize("argv", [
    ["stats"],
    ["distill", "--sigmas", "0.5,2", "--steps", "100", "--batch", "8", "--seed", "4"],
    ["metrics", "--metric", "score-diff", "--denoiser", "multi-delta",
     "--denoiser2", "gaussian", "--variant", "nmse", "--n", "10", "--svg"],
    ["verify", "--suite", "memorize", "--n-starts", "5"],
])
def test_manifest_replay_into_its_own_directory_is_byte_identical(
        tmp_path, cluster_csv, capsys, argv):
    out = tmp_path / "out"
    if argv[0] != "verify":
        argv = argv + ["--data", cluster_csv]
    code = main(argv + ["--out", str(out)])
    first = _read_all(out)
    assert "manifest.json" in first
    assert main([argv[0], "--config", str(out / "manifest.json")]) == code
    assert _read_all(out) == first


def test_bad_config_value_exits_2_without_traceback(tmp_path, cluster_csv):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"steps": "abc"}))
    src = str(Path(denoiselab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "denoiselab", "sample", "--data", cluster_csv,
         "--config", str(cfg), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "argument --steps: invalid int value: 'abc'" in proc.stderr


def _run_module(argv, tmp_path):
    src = str(Path(denoiselab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "denoiselab", *argv], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("blob", [b"\xef\xbb\xbf0.5,0.25\n-0.5,0.0\n", b"0.5,0.25\n-0.5,\xe9\n"],
                         ids=["utf8-bom", "latin1-byte"])
def test_non_ascii_csv_exits_3_without_traceback(tmp_path, blob):
    data = tmp_path / "f.csv"
    data.write_bytes(blob)
    proc = _run_module(["stats", "--data", str(data), "--out", str(tmp_path / "o")], tmp_path)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "f.csv" in proc.stderr


def _affine_ckpt(path, dim):
    from denoiselab import AffineDenoiser, save_affine

    save_affine(AffineDenoiser(np.eye(dim), np.zeros(dim)), path)
    return path


def _toy_ckpt(path, dim, hidden=8):
    from denoiselab import init_toy, save_toy

    save_toy(init_toy(1, dim, hidden, "skip"), path)
    return path


@pytest.mark.parametrize("kind", ["affine", "toy"])
def test_sample_with_data_of_another_dimension_exits_3(tmp_path, kind, capsys):
    ckpt = (_affine_ckpt if kind == "affine" else _toy_ckpt)(tmp_path / "ckpt", 3)
    data = write_csv(tmp_path / "d4.csv", np.full((3, 4), 0.25))
    out = tmp_path / "o"
    code = main(["sample", "--data", str(data), "--denoiser", f"{kind}:{ckpt}",
                 "--steps", "3", "--out", str(out)])
    assert code == 3
    assert "dimension 3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["stats", "sample", "distill", "metrics"])
def test_missing_data_file_exits_3_and_creates_no_out_dir(tmp_path, subcommand, capsys):
    out = tmp_path / "o"
    code = main([subcommand, "--data", str(tmp_path / "missing.csv"), "--out", str(out)])
    assert code == 3
    assert "missing.csv" in capsys.readouterr().err
    assert not out.exists()


def _toy_header(dim, hidden):
    return b"TOY1" + bytes([1]) + np.array([dim, hidden], "<u4").tobytes() + \
        np.array([0.5], "<f8").tobytes()


def _toy_payload_size(dim, hidden):
    return (dim + 1) * hidden + hidden + hidden * hidden + hidden + hidden * dim + dim


def _degenerate_checkpoint(path, hole):
    if hole == "affine-dim-0":
        blob = b"AFF1" + np.array([0], "<u4").tobytes() + np.array([np.nan], "<f8").tobytes()
        path.write_bytes(blob)
        return f"affine:{path}"
    if hole in ("toy-dim-0", "toy-hidden-0"):
        dim, hidden = (0, 8) if hole == "toy-dim-0" else (3, 0)
        payload = np.zeros(_toy_payload_size(dim, hidden), "<f8").tobytes()
        path.write_bytes(_toy_header(dim, hidden) + payload)
        return f"toy:{path}"
    blob = bytearray(_toy_ckpt(path, 3).read_bytes())
    if hole == "toy-nan-sigma-data":
        blob[13:21] = np.array([np.nan], "<f8").tobytes()
    else:  # toy-inf-weight
        blob[21:29] = np.array([np.inf], "<f8").tobytes()  # first entry of W1
    path.write_bytes(bytes(blob))
    return f"toy:{path}"


@pytest.mark.parametrize("hole", ["affine-dim-0", "toy-dim-0", "toy-hidden-0", "toy-inf-weight",
                                  "toy-nan-sigma-data"])
def test_degenerate_checkpoint_exits_3(tmp_path, hole, capsys):
    spec = _degenerate_checkpoint(tmp_path / "ckpt", hole)
    out = tmp_path / "o"
    code = main(["sample", "--denoiser", spec, "--dim", "3", "--steps", "3", "--out", str(out)])
    assert code == 3
    assert not (out / "finals.csv").exists()
    if hole == "toy-nan-sigma-data":
        assert "sigma_data" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_external_plugin_nonpositive_dim_exits_3_without_traceback(tmp_path, dim):
    plugin = plugin_spec("echo", "--dim", dim)
    out = tmp_path / "o"
    proc = _run_module(["sample", "--denoiser", plugin, "--dim", dim, "--steps", "3",
                        "--out", str(out)], tmp_path)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert f"got {dim}" in proc.stderr
    assert not (out / "finals.csv").exists()


def test_external_plugin_dimension_mismatch_exits_3_without_traceback(tmp_path):
    plugin = plugin_spec("echo", "--dim", 3)
    out = tmp_path / "o"
    proc = _run_module(["sample", "--denoiser", plugin, "--dim", "4", "--steps", "3",
                        "--out", str(out)], tmp_path)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "plugin serves dimension 3, expected 4" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["stats"],
    ["sample", "--denoiser", "gaussian", "--count", "2", "--steps", "5", "--oracle", "--raw"],
    ["sample", "--denoiser", "multi-delta", "--steps", "5"],
    ["distill", "--sigmas", "0.5,2", "--steps", "20", "--batch", "8"],
    ["metrics", "--metric", "score-diff", "--denoiser2", "multi-delta", "--n", "5", "--steps", "3",
     "--svg"],
    ["metrics", "--n", "5", "--steps", "3"],
    ["verify", "--suite", "memorize", "--n-starts", "5"],
])
def test_manifest_lists_exactly_the_files_of_the_run(tmp_path, cluster_csv, capsys, argv):
    out = tmp_path / "o"
    if argv[0] != "verify":
        argv = argv + ["--data", cluster_csv]
    assert main(argv + ["--out", str(out)]) == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert outputs == sorted(outputs)
    assert sorted(outputs + ["manifest.json"]) == sorted(p.name for p in out.iterdir())


#: a 3-d plugin that completes the handshake and exits at the first request
DIES_AFTER_HANDSHAKE = [sys.executable, "-c", "import sys\n"
                        "sys.stdout.buffer.write(sys.stdin.buffer.read(8))\n"]


@pytest.mark.parametrize("subcommand, plugin, code, message", [
    ("sample", NAN_BELOW_ONE, 3, "plugin replied with a non-finite value"),
    ("distill", DIES_AFTER_HANDSHAKE, 4, "teacher failed in the block from step 0"),
], ids=["sample-nan-reply", "distill-child-exits"])
def test_run_that_fails_before_its_first_file_leaves_no_directory(tmp_path, capsys, subcommand,
                                                                  plugin, code, message):
    # the plugin fails the first start or the first block, before any file is written
    data = write_csv(tmp_path / "d3.csv", [[0.5, 0.25, 0.0], [-0.5, 0.0, 0.25]])
    spec = "external:" + shlex.join(plugin)
    argv = (["sample", "--denoiser", spec, "--dim", "3", "--steps", "5"] if subcommand == "sample"
            else ["distill", "--teacher", spec, "--data", str(data), "--steps", "4"])
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_plugin_child_is_shut_down_when_writing_the_manifest_fails(tmp_path, monkeypatch,
                                                                    capsys):
    children = []

    class Recorded(cli.ExternalDenoiser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            children.append(self)

    def write_json(path, obj):
        if Path(path).name == "manifest.json":
            raise OSError("no space left on device")
        denoiselab.dataset.write_json(path, obj)

    monkeypatch.setattr(cli, "ExternalDenoiser", Recorded)
    monkeypatch.setattr(cli, "write_json", write_json)
    plugin = plugin_spec("echo", "--dim", 3)
    out = tmp_path / "o"
    code = main(["sample", "--denoiser", plugin, "--dim", "3", "--steps", "3", "--out", str(out)])
    assert code == 3
    assert "no space left on device" in capsys.readouterr().err
    (child,) = children
    assert child._proc.returncode == 0  # sent the shutdown tag and reaped, not left running
    assert (out / "finals.csv").exists() and not (out / "manifest.json").exists()


@pytest.mark.parametrize("metric, variant, flags, takes", [
    ("linearity", "rmse", [], "cosine or nmse"),
    ("score-diff", "cosine", ["--denoiser2", "multi-delta"], "rmse or nmse"),
])
def test_metrics_variant_the_metric_does_not_take_exits_2(tmp_path, cluster_csv, capsys,
                                                          metric, variant, flags, takes):
    out = tmp_path / "o"
    code = main(["metrics", "--data", cluster_csv, "--metric", metric, "--variant", variant,
                 *flags, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == \
        f"error: metric {metric!r} takes --variant {takes}, not {variant!r}\n"
    assert not out.exists()


def test_metrics_score_diff_without_samples_exits_3(tmp_path, cluster_csv, capsys):
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["metrics", "--data", cluster_csv, "--metric", "score-diff",
                     "--denoiser2", "multi-delta", "--n", "0", "--out", str(out)])
    assert code == 3
    assert "n must be at least 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sigmas", ["nan", "inf", "1,nan", "0.5,inf"])
def test_distill_non_finite_sigmas_exit_2(tmp_path, cluster_csv, capsys, sigmas):
    out = tmp_path / "o"
    code = main(["distill", "--data", cluster_csv, "--sigmas", sigmas, "--steps", "10",
                 "--out", str(out)])
    assert code == 2
    assert f"sigma list must hold finite positive values, got {sigmas!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("denoiser", ["multi-delta", "gaussian"])
@pytest.mark.parametrize("flags, message", [
    (["--sigma-max", "inf"], "sigma_max < inf"),
    (["--rho", "nan"], "rho must be positive and finite"),
    (["--rho", "inf"], "rho must be positive and finite"),
])
def test_sample_non_finite_schedule_exits_3(tmp_path, cluster_csv, capsys, denoiser, flags,
                                            message):
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["sample", "--data", cluster_csv, "--denoiser", denoiser, *flags,
                     "--steps", "5", "--out", str(out)])
    assert code == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["stats", "sample", "distill", "metrics", "verify"])
def test_negative_seed_exits_2(tmp_path, cluster_csv, capsys, subcommand):
    out = tmp_path / "o"
    argv = ["--suite", "memorize"] if subcommand == "verify" else ["--data", cluster_csv]
    assert main([subcommand, *argv, "--seed", "-1", "--out", str(out)]) == 2
    assert "seed must be at least 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("flag, value", [("--dim", "0"), ("--dim", "-1"), ("--n-samples", "0"),
                                         ("--n-samples", "-1")])
def test_verify_without_dimensions_or_samples_exits_3(tmp_path, capsys, suite, flag, value):
    out = tmp_path / "o"
    assert main(["verify", "--suite", suite, flag, value, "--out", str(out)]) == 3
    name = flag[2:].replace("-", "_")
    assert f"{name} must be at least 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["sample", "--sigma-max", "1e155"], "where sigma^2 overflows"),
    (["sample", "--sigma-max", "1e155", "--denoiser", "multi-delta"], "where sigma^2 overflows"),
    (["metrics", "--sigma-max", "1e155"], "where sigma^2 overflows"),
    (["sample", "--rho", "0.001"], "overflows sigma_max^(1/rho)"),
    (["metrics", "--rho", "1e-200"], "overflows sigma_max^(1/rho)"),
    (["distill", "--sigmas", "1e155", "--steps", "3"], "where sigma^2 overflows"),
    (["metrics", "--alpha", "1e155"], "alpha^2 + beta^2 must be 1"),
    (["metrics", "--beta", "1e155"], "alpha^2 + beta^2 must be 1"),
    (["sample", "--denoiser", "multi-delta", "--sigma-min", "1e-200", "--count", "2"],
     "finite normal float"),
    (["distill", "--sigmas", "1e-200", "--teacher", "multi-delta", "--steps", "3"],
     "finite normal float"),
    (["metrics", "--sigma-min", "1e-200", "--denoiser", "multi-delta"], "finite normal float"),
    (["distill", "--lr", "1e155", "--steps", "5"], "non-finite distillation loss at step 1"),
])
def test_extreme_finite_values_exit_3_before_any_file(tmp_path, cluster_csv, capsys, argv,
                                                       message):
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([*argv, "--data", cluster_csv, "--out", str(out)])
    assert code == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_multi_delta_sampling_from_a_start_whose_square_overflows_lands_on_training_rows(
        tmp_path, cluster_csv):
    # |x_T| is near 1e154, so |x_T|^2 overflows; the scores x.y - |y|^2 / 2 do not
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["sample", "--sigma-max", "1e154", "--denoiser", "multi-delta",
                     "--count", "3", "--data", cluster_csv, "--out", str(out)])
    assert code == 0
    finals = np.loadtxt(out / "finals.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1:]
    rows = np.loadtxt(cluster_csv, delimiter=",", ndmin=2)
    assert finals.shape == (3, rows.shape[1])
    for final in finals:
        rel = np.linalg.norm(rows - final, axis=1) / np.linalg.norm(rows, axis=1)
        assert rel.min() <= 1e-2


@pytest.mark.parametrize("argv", [
    ["sample", "--sigma-min", "1e-200", "--count", "2", "--oracle"],
    ["distill", "--sigmas", "1e-200", "--teacher", "gaussian", "--steps", "3"],
    ["metrics", "--sigma-min", "1e-200"],
])
def test_gaussian_runs_at_a_level_whose_square_underflows(tmp_path, cluster_csv, argv):
    # the Gaussian gain is 1 at sigma^2 = 0, so these runs are valid
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([*argv, "--data", cluster_csv, "--out", str(tmp_path / "o")]) == 0


def test_multi_delta_sampling_where_far_logits_overflow_prints_no_warning(tmp_path):
    # at sigma = 2e-154, logits of rows more than about 3.8 apart overflow to -inf: zero weights
    data = write_csv(tmp_path / "wide.csv", np.random.default_rng(8).uniform(-1, 1, (8, 128)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["sample", "--data", str(data), "--denoiser", "multi-delta",
                     "--sigma-min", "2e-154", "--steps", "5", "--out", str(tmp_path / "o")]) == 0
