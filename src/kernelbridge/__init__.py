"""Kernel methods with paired Bayesian and frequentist faces.

The library implements Gaussian-process regression, kernel ridge
regression, worst-case (RKHS) error duality, Nystrom spectral machinery,
kernel mean embeddings with MMD, kernel/Bayesian quadrature, and kernel
dependence measures, and ships a verification harness that checks the
exact identities tying the probabilistic and deterministic formulations
together. Everything is numpy-based and deterministic under explicit
seeds.

The usual entry points:

- :mod:`kernelbridge.kernels` for kernel families, datasets, and the
  flat text grammar used by the CLI;
- :mod:`kernelbridge.gp` and :mod:`kernelbridge.krr` for the two
  regression faces;
- :mod:`kernelbridge.duality` for the worst-case-error identity;
- :mod:`kernelbridge.spectral` for Nystrom eigensystems, power kernels,
  and truncated expansions;
- :mod:`kernelbridge.embeddings`, :mod:`kernelbridge.quadrature`, and
  :mod:`kernelbridge.dependence` for measures, integration, and
  dependence;
- :mod:`kernelbridge.suites` and :mod:`kernelbridge.cli` for the
  verification harness (console script ``kernelbridge``).
"""

from .errors import (
    InputError,
    NumericalError,
    PreconditionError,
    UnsupportedOperationError,
)
from .kernels import (
    BrownianDistance,
    Dataset,
    Kernel,
    KroneckerDelta,
    Matern,
    Polynomial,
    RepresenterFunction,
    SquaredExponential,
    Sum,
    format_kernel,
    gram,
    parse_kernel,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "InputError",
    "NumericalError",
    "PreconditionError",
    "UnsupportedOperationError",
    "Kernel",
    "SquaredExponential",
    "Matern",
    "Polynomial",
    "KroneckerDelta",
    "BrownianDistance",
    "Sum",
    "Dataset",
    "RepresenterFunction",
    "gram",
    "parse_kernel",
    "format_kernel",
]
