"""The scalar potential as a first-class object.

A :class:`Potential` bundles the evaluator with two hypotheses of the
analysis: nonnegativity, which every Nemytskii application checks, and an
optional exact rule for the Lipschitz constant on symmetric intervals, which
the uniqueness threshold reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .mesh import Field

#: Slack for the nonnegativity spot-check performed on every Nemytskii call.
CERTIFICATE_TOL = 1e-14


class EvaluationError(ValueError):
    """The potential or the map produced a non-finite or certificate-breaking value."""


@dataclass(frozen=True)
class Potential:
    """Continuous scalar function with machine-checkable capability flags.

    ``evaluator`` must accept numpy arrays elementwise.  ``lipschitz_rule``,
    when present, returns an upper bound on the Lipschitz constant on
    ``[-s0, s0]`` (the catalog's rules are exact).  Only such a rule
    certifies uniqueness: without one the threshold is "not applicable",
    since sampled difference quotients bound the constant from below.
    """

    name: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    nonnegative: bool = False
    lipschitz_rule: Callable[[float], float] | None = None

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(np.asarray(s, dtype=float)), dtype=float)


def nemytskii(phi: Potential, v: Field) -> Field:
    """Pointwise application ``w_i = phi(v_i)``.

    Raises :class:`EvaluationError` naming the first offending node if the
    output is non-finite or breaks a declared nonnegativity.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        w = phi(v.values)
    if w.shape != v.values.shape:
        w = np.broadcast_to(w, v.values.shape).astype(float)
    bad = ~np.isfinite(w)
    if np.any(bad):
        node = int(np.argmax(bad))
        raise EvaluationError(
            f"potential '{phi.name}' returned a non-finite value at node {node} "
            f"(input {float(v.values[node])!r})"
        )
    if phi.nonnegative and np.any(w < -CERTIFICATE_TOL):
        node = int(np.argmax(w < -CERTIFICATE_TOL))
        raise EvaluationError(
            f"potential '{phi.name}' is certified nonnegative but evaluated to "
            f"{float(w[node])!r} at node {node}"
        )
    return Field(v.grid, w)


def _zero(params: Sequence[float]) -> Potential:
    _expect_params("zero", params, 0)
    return Potential(
        name="zero",
        evaluator=lambda s: np.zeros_like(s),
        nonnegative=True,
        lipschitz_rule=lambda s0: 0.0,
    )


def _constant(params: Sequence[float]) -> Potential:
    _expect_params("constant", params, 1)
    c = float(params[0])
    return Potential(
        name=f"constant({c:g})",
        evaluator=lambda s: np.full_like(s, c),
        nonnegative=c >= 0.0,
        lipschitz_rule=lambda s0: 0.0,
    )


def _quadratic(params: Sequence[float]) -> Potential:
    _expect_params("quadratic", params, 0)
    return Potential(
        name="quadratic",
        evaluator=lambda s: s * s,
        nonnegative=True,
        lipschitz_rule=lambda s0: 2.0 * s0,
    )


def _absval(params: Sequence[float]) -> Potential:
    _expect_params("absval", params, 0)
    return Potential(
        name="absval",
        evaluator=np.abs,
        nonnegative=True,
        lipschitz_rule=lambda s0: 1.0 if s0 > 0.0 else 0.0,
    )


def _bounded_sine(params: Sequence[float]) -> Potential:
    if len(params) > 1:
        raise ValueError(f"bounded_sine takes at most 1 parameter, got {len(params)}")
    amp = float(params[0]) if params else 1.0
    if amp < 0.0:
        raise ValueError(f"bounded_sine amplitude must be nonnegative, got {amp}")
    return Potential(
        name=f"bounded_sine({amp:g})",
        evaluator=lambda s: amp * (1.0 + np.sin(s)),
        nonnegative=True,
        # sup|cos| on [-s0, s0] is 1 for every s0 > 0 (attained at 0)
        lipschitz_rule=lambda s0: amp if s0 > 0.0 else 0.0,
    )


def _linear_growth(params: Sequence[float]) -> Potential:
    _expect_params("linear_growth", params, 1)
    a = float(params[0])
    if a < 0.0:
        raise ValueError(f"linear_growth needs a >= 0, got {a}")
    return Potential(
        name=f"linear_growth({a:g})",
        evaluator=lambda s: 0.5 * a * (1.0 + np.abs(s)),
        nonnegative=True,
        lipschitz_rule=lambda s0: 0.5 * a if s0 > 0.0 else 0.0,
    )


_CATALOG: dict[str, Callable[[Sequence[float]], Potential]] = {
    "zero": _zero,
    "constant": _constant,
    "quadratic": _quadratic,
    "absval": _absval,
    "bounded_sine": _bounded_sine,
    "linear_growth": _linear_growth,
}


def _expect_params(name: str, params: Sequence[float], count: int) -> None:
    if len(params) != count:
        raise ValueError(f"potential '{name}' takes {count} parameter(s), got {len(params)}")


def catalog(name: str, params: Sequence[float] = ()) -> Potential:
    """Construct a named potential with exact certificates.

    Known names: zero, constant(c), quadratic, absval, bounded_sine([amp]),
    linear_growth(a).
    """
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown potential '{name}'; known: {', '.join(sorted(_CATALOG))}"
        ) from None
    return builder(params)
