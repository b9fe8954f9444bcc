import numpy as np

from scattertomo.scatter import Channel
from scattertomo.states import BlochVector


def rand_bloch(rng, r_max=0.95, r_min=0.0):
    """Bloch vector with uniform direction and radius uniform in [r_min, r_max]."""
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return v * rng.uniform(r_min, r_max)


def rand_ball(rng, r_max=0.95):
    """Bloch vector uniform in the ball of radius r_max."""
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return v * r_max * rng.uniform() ** (1.0 / 3.0)


def rand_unitary(rng):
    """Haar-ish random 2x2 unitary from a QR decomposition."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_density(rng, dim):
    """Random full-rank dim x dim density matrix G G^dagger / Tr, G complex Gaussian."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def marginals(rho):
    """(first, second) one-qubit marginals of a two-qubit operator, by einsum traces."""
    t = np.asarray(rho).reshape(2, 2, 2, 2)
    return np.einsum("ajbj->ab", t), np.einsum("iaib->ab", t)


def log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def relerr(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def branches(labels, blocks, derivatives=None):
    """(state, derivatives) with blocks B_i and derivative stacks D_i (zero if None).

    They are built as Channel(labels, [stack((B_i, *D_i))]).state(v = 0) and its
    channel's derivatives: the state is 0.5 (B_i + B_i^H) and the derivatives are
    0.5 (D_i + D_i^H), which are B_i and D_i bit for bit where they are Hermitian.
    """
    blocks = [np.asarray(b) for b in blocks]
    if derivatives is None:
        derivatives = [np.zeros((3, *b.shape)) for b in blocks]
    channel = Channel(labels, [np.stack((b, *d)) for b, d in zip(blocks, derivatives)])
    return channel.state(BlochVector(0.0, 0.0, 0.0)), channel.derivatives
