"""Finite Mercer machinery: eigensystems, power kernels, truncated sampling.

The integral operator of a kernel against a discrete measure
``sum_l w_l delta_{x_l}`` reduces to the weighted symmetric eigenproblem

    ``W^{1/2} K W^{1/2} = U Lam U^T,   Phi = W^{-1/2} U``,

whose columns are orthonormal in L2 of the measure and reconstruct the
kernel exactly at the nodes: ``sum_i lam_i phi_i(x_j) phi_i(x_l) =
k(x_j, x_l)``. These eigenpairs drive everything here: truncated Mercer
evaluation, spectrally damped power kernels ``sum_i lam_i^theta phi_i
phi_i^T``, the trace diagnostic ``sum_i lam_i^{1-theta}``, and truncated
series sampling ``sum_i z_i sqrt(lam_i) phi_i`` with iid normal ``z_i``.

Eigenvalues below ``1e-12 * lam_1`` are clamped to zero at construction so
fractional powers never touch negative roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .kernels import Kernel, as_count, as_points, as_values, gram
from .linalg import normals_times, symmetrize

__all__ = [
    "EigenSystem",
    "nystrom_eigensystem",
    "mercer_kernel_eval",
    "power_kernel",
    "hs_inclusion_diagnostic",
    "kl_sample",
]

_CLAMP_RELATIVE = 1e-12


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Eigenpairs of the kernel against a weighted node set.

    ``eigenvalues`` are sorted descending and clamped at zero;
    ``eigenfunctions_at_nodes`` has column i holding phi_i evaluated at the
    nodes.
    """

    kernel: Kernel
    nodes: np.ndarray
    node_weights: np.ndarray
    eigenvalues: np.ndarray
    eigenfunctions_at_nodes: np.ndarray

    @property
    def n(self) -> int:
        return self.nodes.shape[0]


def nystrom_eigensystem(kernel: Kernel, nodes, node_weights=None) -> EigenSystem:
    """Solve the weighted eigenproblem for a kernel on distinct nodes.

    Weights must be positive; they are normalized to sum to one. Omitting
    them gives the uniform empirical measure.
    """
    P = as_points(nodes)
    n = P.shape[0]
    if n == 0:
        raise InputError("the eigensystem needs at least one node")
    seen = set()
    for i in range(n):
        key = P[i].tobytes()
        if key in seen:
            raise InputError(f"nodes must be distinct (row {i} repeats an earlier row)")
        seen.add(key)
    if node_weights is None:
        w = np.full(n, 1.0 / n)
    else:
        w = as_values(node_weights, n, "weights", "nodes")
        if np.any(w <= 0):
            raise InputError("node weights must be positive and finite")
        w = w / w.sum()
    K = gram(kernel, P, P)
    root = np.sqrt(w)
    M = symmetrize(root[:, None] * K * root[None, :])
    lam, U = np.linalg.eigh(M)
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    U = U[:, order]
    top = max(float(lam[0]), 0.0)
    lam = np.where(lam < _CLAMP_RELATIVE * top, 0.0, lam)
    phi = U / root[:, None]
    return EigenSystem(
        kernel=kernel,
        nodes=P,
        node_weights=w,
        eigenvalues=lam,
        eigenfunctions_at_nodes=phi,
    )


def _check_truncation(eig: EigenSystem, truncation: int) -> int:
    if not 1 <= truncation <= eig.n:
        raise InputError(f"truncation must lie in [1, {eig.n}], got {truncation}")
    return as_count(truncation)


def mercer_kernel_eval(eig: EigenSystem, truncation: int, i: int, j: int) -> float:
    """Truncated Mercer series ``sum_{m <= r} lam_m phi_m(x_i) phi_m(x_j)``.

    At ``truncation == n`` this reproduces the Gram entry exactly (up to
    eigensolver roundoff).
    """
    r = _check_truncation(eig, truncation)
    if not (0 <= i < eig.n) or not (0 <= j < eig.n):
        raise InputError(f"node indices must lie in [0, {eig.n}), got ({i}, {j})")
    phi = eig.eigenfunctions_at_nodes
    return float(np.sum(eig.eigenvalues[:r] * phi[i, :r] * phi[j, :r]))


def power_kernel(eig: EigenSystem, theta: float) -> np.ndarray:
    """The spectrally damped kernel matrix ``sum_i lam_i^theta phi_i phi_i^T``
    restricted to the nodes, for ``theta`` in (0, 1].

    ``theta == 1`` reproduces the original Gram matrix; smaller values
    interpolate toward the L2 geometry of the node measure.
    """
    if not np.isfinite(theta) or not (0.0 < theta <= 1.0):
        raise InputError("theta must lie in (0, 1]")
    phi = eig.eigenfunctions_at_nodes
    powered = eig.eigenvalues**theta
    return (phi * powered[None, :]) @ phi.T


def hs_inclusion_diagnostic(eig: EigenSystem, theta: float, truncation: int) -> float:
    """Partial sum ``sum_{i <= r} lam_i^{1-theta}`` for ``theta`` in (0, 1).

    Monotone nondecreasing in ``r``; a plateau indicates the damped
    inclusion is well inside Hilbert-Schmidt territory at this node
    resolution, while steady growth flags the opposite.
    """
    if not np.isfinite(theta) or not (0.0 < theta < 1.0):
        raise InputError("theta must lie in (0, 1)")
    r = _check_truncation(eig, truncation)
    return float(np.sum(eig.eigenvalues[:r] ** (1.0 - theta)))


def kl_sample(eig: EigenSystem, truncation: int, count: int, seed: int) -> np.ndarray:
    """Truncated series samples ``sum_{i <= r} z_i sqrt(lam_i) phi_i`` at the
    nodes, one per row, with iid standard normal coefficients.
    """
    r = _check_truncation(eig, truncation)
    count = as_count(count)
    basis = eig.eigenfunctions_at_nodes[:, :r] * np.sqrt(eig.eigenvalues[:r])[None, :]
    return normals_times(np.random.default_rng(seed), basis, count)
