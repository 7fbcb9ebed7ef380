import ast
import functools
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import denoiselab
from denoiselab import (
    AffineDenoiser,
    DataMatrix,
    Denoiser,
    ExternalDenoiser,
    GaussianDenoiser,
    MultiDeltaDenoiser,
    PerLevelDenoiser,
    empirical_stats,
    init_toy,
)

#: the source tree the tests import, which ``fresh_interpreter`` puts on its path
SRC = Path(denoiselab.__file__).resolve().parents[1]


class FnDenoiser(Denoiser):
    """Wrap a plain function as a denoiser for tests."""

    def __init__(self, dim, fn):
        self.dim = dim
        self._fn = fn

    def evaluate_batch(self, X, sigma):
        X = np.asarray(X, dtype=np.float64)
        return np.stack([np.asarray(self._fn(row, sigma), dtype=np.float64) for row in X])


def plugin_argv(kind, *args):
    """The argv of a built-in ``plugin_cli`` child: ``kind`` and its arguments."""
    return [sys.executable, "-m", "denoiselab.plugin_cli", kind, *map(str, args)]


def plugin_spec(kind, *args):
    """``plugin_argv`` as a shell-quoted CLI ``external:`` denoiser spec."""
    return "external:" + shlex.join(plugin_argv(kind, *args))


#: a 3-d plugin served by ``serve_plugin``: echoes its rows, and replies NaN below sigma = 1
NAN_BELOW_ONE = [sys.executable, "-c",
                 "import numpy as np\n"
                 "from denoiselab.plugin import serve_plugin\n"
                 "serve_plugin(lambda X, s: X if s >= 1 else np.full_like(X, np.nan), 3)\n"]


#: six points in 3-d, the data of the dim-3 denoisers below
DATA3 = DataMatrix(np.random.default_rng(5).uniform(-1, 1, size=(6, 3)))
STATS3 = empirical_stats(DATA3)


@functools.cache
def echo_child():
    """One 3-d echo plugin child, started at its first use and closed after its module."""
    return ExternalDenoiser(plugin_argv("echo", "--dim", 3), dim=3)


@pytest.fixture(scope="module", autouse=True)
def _close_echo_child():
    yield
    if echo_child.cache_info().currsize:
        echo_child().close()
        echo_child.cache_clear()


#: name -> a factory of one dim-3 denoiser of each kind. The table of input entry points in
#: test_denoisers.py takes every one and the table of sigma entry points every one that reads
#: sigma, so a new denoiser joins both here
DENOISERS = {
    "multi-delta": lambda: MultiDeltaDenoiser(DATA3),
    "gaussian": lambda: GaussianDenoiser(STATS3),
    "affine": lambda: AffineDenoiser(np.eye(3), np.zeros(3)),
    "toy-dae": lambda: init_toy(0, 3, 4),
    "toy-skip": lambda: init_toy(0, 3, 4, "skip"),
    # a zero map below an identity: both ignore sigma, so only the table's own check refuses one
    "per-level": lambda: PerLevelDenoiser({0.1: AffineDenoiser(np.zeros((3, 3)), np.zeros(3)),
                                           10.0: AffineDenoiser(np.eye(3), np.zeros(3))}),
    "external": echo_child,
}


@pytest.fixture
def two_point_data():
    return DataMatrix(np.array([[1.0, 0.0], [-1.0, 0.0]]))


@pytest.fixture
def two_point_stats(two_point_data):
    return empirical_stats(two_point_data)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def write_csv(path, rows):
    with open(path, "w") as fh:
        for row in np.atleast_2d(rows):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return path


def textbook_adam_step(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam step (Kingma & Ba, Alg. 1) array by array; ``m``/``v`` are lists."""
    for i, (p, g) in enumerate(zip(params, grads)):
        m[i] = beta1 * m[i] + (1 - beta1) * g
        v[i] = beta2 * v[i] + (1 - beta2) * g**2
        m_hat = m[i] / (1 - beta1**t)
        v_hat = v[i] / (1 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


def textbook_linear_dsm(X, sigma, cfg):
    """Plain GD on the clean-target objective with W and b kept apart.

    Returns ``(W, b, losses)``, or ``(None, step, losses)`` at the step where
    the loss turned non-finite or passed 10x its starting value.
    """
    d = X.dim
    Y = X.values
    mu = Y.mean(axis=0)
    second = Y.T @ Y / X.n_samples
    W = np.zeros((d, d))
    b = np.zeros(d)
    eye = np.eye(d)

    def loss_of(W, b):
        E = W - eye
        quad = float(np.sum((E @ second) * E)) + 2.0 * float(b @ (E @ mu)) + float(b @ b)
        return quad + sigma**2 * float(np.sum(W * W))

    losses = []
    initial = loss_of(W, b)
    for k in range(cfg.steps):
        loss = loss_of(W, b)
        if not np.isfinite(loss) or loss > 10.0 * initial:
            return None, k, np.array(losses)
        losses.append(loss)
        grad_W = 2.0 * ((W - eye) @ second + np.outer(b, mu) + sigma**2 * W)
        grad_b = 2.0 * (W @ mu + b - mu)
        W -= cfg.lr * grad_W
        b -= cfg.lr * grad_b
    return W, b, np.array(losses)


def textbook_distill_linear(target, X, sigma, cfg):
    """Stochastic distillation that queries the target once per step.

    Each step draws ``cfg.batch`` row indices, then their normals, and takes
    an Adam step, or a plain SGD step when ``cfg.use_adam`` is false. Returns
    ``(W, b, losses)``, or ``(None, step, losses)`` at the step where the
    loss turned non-finite.
    """
    d = X.dim
    rng = np.random.default_rng(cfg.seed)
    W = np.zeros((d, d))
    b = np.zeros(d)
    m, v = [np.zeros_like(W), np.zeros_like(b)], [np.zeros_like(W), np.zeros_like(b)]
    losses = []
    for k in range(cfg.steps):
        rows = X.values[rng.integers(0, X.n_samples, size=cfg.batch)]
        noisy = rows + sigma * rng.standard_normal((cfg.batch, d))
        teach = target.evaluate_batch(noisy, sigma)
        resid = noisy @ W.T + b - teach
        loss = float((resid**2).sum(axis=1).mean())
        if not np.isfinite(loss):
            return None, k, np.array(losses)
        losses.append(loss)
        grad_W = 2.0 / cfg.batch * resid.T @ noisy
        grad_b = 2.0 / cfg.batch * resid.sum(axis=0)
        if cfg.use_adam:
            textbook_adam_step([W, b], [grad_W, grad_b], m, v, k + 1, cfg.lr,
                               cfg.beta1, cfg.beta2, cfg.eps)
        else:
            W -= cfg.lr * grad_W
            b -= cfg.lr * grad_b
    return W, b, np.array(losses)


def euler_gaussian_final(stats, schedule, x_T):
    """Final state(s) of Euler sampling under the Gaussian denoiser, per eigenmode.

    ``x_T`` is one start (d,) or k starts (k, d).
    """
    t, lam = schedule.values, stats.eigvals[:, None]
    steps = 1.0 - (1.0 - t[1:] / t[:-1]) * t[:-1]**2 / (lam + t[:-1]**2)
    gain = steps.prod(axis=1) * stats.eigvals / (stats.eigvals + t[-1]**2)
    return stats.mean + (gain * ((x_T - stats.mean) @ stats.basis)) @ stats.basis.T


def fresh_interpreter(snippet, setup=""):
    """Run ``setup`` then ``snippet`` in a new interpreter with ``src/`` on its path.

    Returns the growth of its peak RSS over ``snippet``, in MB (from
    ``resource.getrusage``), and the set of names in ``sys.modules`` at the end.
    """
    code = "\n".join([
        "import resource, sys",
        setup,
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss",
        snippet,
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss",
        "print(repr(((after - before) / 1024, sorted(sys.modules))))",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    growth, modules = ast.literal_eval(done.stdout.strip().splitlines()[-1])
    return growth, set(modules)


def one_batch_jacobian(D, x, sigma, h=1e-4):
    """The central-difference Jacobian with all 2d probes in one call, as a reference."""
    d = D.dim
    probes = np.concatenate([x + h * np.eye(d), x - h * np.eye(d)])
    outputs = D.evaluate_batch(probes, sigma)
    return (outputs[:d] - outputs[d:]).T / (2.0 * h)
