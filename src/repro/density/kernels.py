"""One-dimensional kernel profiles used in product form.

The multi-dimensional kernel density estimate uses product kernels:

``K_d(u_1..u_d) = prod_j K(u_j)``

with each 1-D profile integrating to one. The paper uses the
Epanechnikov kernel (optimal mean integrated squared error and cheap to
evaluate); Gaussian, uniform, triangular and biweight profiles are
provided for completeness and ablation.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.exceptions import ParameterError
from repro.obs import get_recorder

__all__ = [
    "Kernel",
    "EpanechnikovKernel",
    "GaussianKernel",
    "UniformKernel",
    "TriangularKernel",
    "BiweightKernel",
    "get_kernel",
]


class Kernel(abc.ABC):
    """A symmetric 1-D kernel profile integrating to one.

    Attributes
    ----------
    support:
        Half-width of the support, ``inf`` for kernels with unbounded
        support (Gaussian). Profiles are zero outside ``[-support, support]``.
    canonical_bandwidth:
        The factor ``delta_0(K)`` that converts a Gaussian-reference
        bandwidth into this kernel's equivalent bandwidth (see
        Silverman 1986, section 3.4.2 "canonical kernels").
    """

    support: float = 1.0
    canonical_bandwidth: float = 1.0
    name: str = "kernel"

    @abc.abstractmethod
    def profile(
        self, u: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Kernel value at (already scaled) offsets ``u``.

        When ``out`` is given it receives the result (and is returned),
        letting blocked evaluation loops reuse one scratch buffer
        instead of allocating per call; ``out`` must not overlap ``u``.
        Implementations keep the exact arithmetic (operation order and
        rounding) of the allocating path, so results are byte-identical
        either way.
        """

    def __call__(self, u) -> np.ndarray:
        values = np.asarray(u, dtype=np.float64)
        get_recorder().count("kernel_evals", values.size)
        if values.ndim == 0:
            # Ufuncs hand back scalars (not 0-d arrays) for 0-d input,
            # which the profiles' ``out=``-chains cannot consume; route
            # scalars through a length-1 view instead.
            return self.profile(values.reshape(1))[0]
        return self.profile(values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class EpanechnikovKernel(Kernel):
    """``K(u) = 0.75 (1 - u^2)`` on ``[-1, 1]`` — the paper's choice."""

    support = 1.0
    canonical_bandwidth = 2.214  # delta_0 relative to the Gaussian kernel
    name = "epanechnikov"

    def profile(
        self, u: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        # Same expression tree as ``0.75 * (1.0 - u * u)``: square,
        # subtract from one, scale — each step rounds identically.
        out = np.multiply(u, u, out=out)
        np.subtract(1.0, out, out=out)
        out *= 0.75
        # Outside the support the value is zeroed. Rounding is monotone
        # and 1 * 1 == 1, so u * u <= 1 exactly when |u| <= 1: the
        # value is negative exactly off the support (and NaN for NaN
        # u), so one branch-free fmax against +0.0 zeroes the same
        # entries as a |u| <= 1 mask, with the same bytes.
        np.fmax(out, 0.0, out=out)
        return out


class GaussianKernel(Kernel):
    """Standard normal profile; unbounded support."""

    support = math.inf
    canonical_bandwidth = 1.0
    name = "gaussian"

    _NORM = 1.0 / math.sqrt(2.0 * math.pi)

    def profile(
        self, u: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        # Mirrors ``self._NORM * np.exp(-0.5 * u * u)`` left to right:
        # (-0.5 * u) * u, exp, scale.
        out = np.multiply(-0.5, u, out=out)
        out *= u
        np.exp(out, out=out)
        out *= self._NORM
        return out


class UniformKernel(Kernel):
    """Box profile ``K(u) = 1/2`` on ``[-1, 1]``."""

    support = 1.0
    canonical_bandwidth = 1.740
    name = "uniform"

    def profile(
        self, u: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        # The indicator |u| <= 1 (False for NaN) written as 1.0 / 0.0,
        # then halved: 0.5 on the support, +0.0 off it.
        out = np.absolute(u, out=out)
        np.less_equal(out, 1.0, out=out)
        out *= 0.5
        return out


class TriangularKernel(Kernel):
    """Tent profile ``K(u) = 1 - |u|`` on ``[-1, 1]``."""

    support = 1.0
    canonical_bandwidth = 2.432
    name = "triangular"

    def profile(
        self, u: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        out = np.absolute(u, out=out)
        np.subtract(1.0, out, out=out)
        # fmax against +0.0 zeroes the non-positive and NaN values, as
        # an ``out > 0`` mask would (1 - 1 is +0.0, never -0.0).
        np.fmax(out, 0.0, out=out)
        return out


class BiweightKernel(Kernel):
    """Quartic profile ``K(u) = 15/16 (1 - u^2)^2`` on ``[-1, 1]``."""

    support = 1.0
    canonical_bandwidth = 2.623
    name = "biweight"

    def profile(
        self, u: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        # w = 1 - u * u is negative exactly off the support (as in the
        # Epanechnikov profile) and NaN for NaN u; clamping w to +0.0
        # first makes ((15/16) * w) * w the +0.0 a |u| <= 1 mask gives.
        w = np.multiply(u, u, out=out)
        np.subtract(1.0, w, out=w)
        np.fmax(w, 0.0, out=w)
        return np.multiply((15.0 / 16.0) * w, w, out=w)


_KERNELS: dict[str, type[Kernel]] = {
    cls.name: cls
    for cls in (
        EpanechnikovKernel,
        GaussianKernel,
        UniformKernel,
        TriangularKernel,
        BiweightKernel,
    )
}


def get_kernel(kernel: str | Kernel) -> Kernel:
    """Resolve a kernel name or instance to a :class:`Kernel`.

    >>> get_kernel("epanechnikov").name
    'epanechnikov'
    """
    if isinstance(kernel, Kernel):
        return kernel
    try:
        return _KERNELS[kernel]()
    except KeyError:
        raise ParameterError(
            f"unknown kernel {kernel!r}; choose from {sorted(_KERNELS)}."
        ) from None
