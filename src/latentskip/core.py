"""Dense tensor statistics, error metrics, and deterministic randomness.

Latents are plain float64 numpy arrays throughout the package; the helpers
here are the only place moments and norms are defined, so every module
shares the same conventions (population std, 1e-8 division guard).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np

# Guard for every division in the package.
EPS = 1e-8


@dataclass(frozen=True)
class FeatureStats:
    mean: float
    std: float  # population (N divisor), never negative


class SeededRng:
    """Deterministic random stream: NumPy PCG64 keyed by a 64-bit seed.

    PCG64 produces the same sequence for the same seed on every platform,
    which is what makes every run in this package reproducible.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)


def mean(x) -> float:
    """Mean over all elements.

    The one reduction ``ndarray.mean`` runs, without its Python wrapper, so
    the result is bitwise equal to ``float(np.mean(x))`` on float64 input.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty input")
    return float(np.add.reduce(x, axis=None) / x.size)


def stats(x: np.ndarray) -> FeatureStats:
    """Global mean and population standard deviation over all elements.

    The ufunc sequence of ``ndarray.std`` with the mean computed once, so both
    values are bitwise equal to ``x.mean()`` and ``x.std()`` on float64 input.
    The divisions and the square root run on Python floats: the same correctly
    rounded IEEE operations, without a NumPy scalar per step.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n == 0:
        raise ValueError("empty input")
    mu = float(np.add.reduce(x, axis=None)) / n
    d = x - mu
    d *= d
    return FeatureStats(mu, math.sqrt(float(np.add.reduce(d, axis=None)) / n))


def require_finite(**arrays) -> None:
    """Raise ValueError naming the first argument that holds NaN or inf; None is skipped."""
    for name, value in arrays.items():
        if value is not None and not np.all(np.isfinite(value)):
            raise ValueError(f"{name} contains NaN or inf")


def require_real(**arrays) -> None:
    """Raise ValueError naming the first complex argument, whose imaginary part a float64 cast would drop."""
    for name, value in arrays.items():
        if np.iscomplexobj(value):
            raise ValueError(f"{name} must be real, got complex values")


# Config field annotation (a string under postponed evaluation) -> (value check, description).
# The exact-type tests come first: the ABC isinstance checks cost about 1 us a field.
_FIELD_KINDS = {
    "int": (lambda v: type(v) is int or isinstance(v, Integral) and type(v) is not bool, "an integer"),
    "float": (lambda v: type(v) in (float, int) or isinstance(v, Real) and type(v) is not bool,
              "a number"),
    "bool": (lambda v: type(v) is bool, "true or false"),
    "str": (lambda v: type(v) is str, "a string"),
    "str | None": (lambda v: v is None or type(v) is str, "a string or null"),
    "tuple": (lambda v: type(v) in (list, tuple) and all(map(_FIELD_KINDS["int"][0], v)),
              "a list of integers"),
}


def check_kinds(config) -> None:
    """Raise ValueError naming a config dataclass's first init field that holds a value of the wrong kind.

    Integers take ``int`` or a NumPy integer, numbers any real; neither takes ``bool``.
    """
    for f in fields(config):
        if f.init:
            fits, expected = _FIELD_KINDS[f.type]
            value = getattr(config, f.name)
            if not fits(value):
                raise ValueError(f"{f.name}: expected {expected}, got {value!r}")


def at_least(n) -> tuple:
    """The rule ``value >= n``, for ``check_rule``."""
    return (lambda v: v >= n, f"must be >= {n}")


def check_rule(rule: tuple, value, name: str) -> None:
    """A ValueError ``"<name>: <requirement>, got <value>"`` unless ``value`` keeps ``rule``.

    ``rule`` is a (holds, requirement) pair: a predicate and its wording.
    """
    holds, requirement = rule
    if not holds(value):
        raise ValueError(f"{name}: {requirement}, got {value!r}")


def relative_l2(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||2 / max(||b||2, EPS); NaN or inf in ``a`` or ``b`` is a ValueError naming it.

    Norms that overflow float64 on finite inputs are taken again on copies scaled by a power of two,
    so the ratio is returned whenever float64 holds it; else a ValueError names ``relative_l2``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # a norm that is not finite is handled below
        num, den, eps = float(np.linalg.norm(a - b)), float(np.linalg.norm(b)), EPS
    if not (math.isfinite(num) and math.isfinite(den)):
        require_finite(a=a, b=b)
        # Scale by 2**-e, exact for every value that stays normal, so the largest magnitude is below 1.
        e = math.frexp(max(np.max(np.abs(a)), np.max(np.abs(b))))[1]
        a, b = np.ldexp(a, -e), np.ldexp(b, -e)
        num, den, eps = float(np.linalg.norm(a - b)), float(np.linalg.norm(b)), math.ldexp(EPS, -e)
    ratio = num / max(den, eps)
    if not math.isfinite(ratio):
        raise ValueError("relative_l2 overflows float64 on these inputs")
    return ratio
