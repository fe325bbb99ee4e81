"""Adaptive Simpson quadrature, kept as a test oracle.

The package integrated the binary posterior density and CDF with this
routine before it moved to a fixed Gauss-Kronrod rule with breakpoints.
It shares no code with that rule, so the tests use it as an independent
reference at small counts, where it converges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ambiq.exceptions import DomainError


class NonFiniteIntegrand(ArithmeticError):
    """The integrand returned NaN or infinity inside the integration range."""


@dataclass(frozen=True)
class SimpsonResult:
    """Integral estimate with its error bookkeeping.

    depth_exceeded is True when a segment hit the recursion cap before
    meeting its tolerance; the estimate is still returned.
    """

    value: float
    error_estimate: float
    depth_exceeded: bool
    n_evaluations: int

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class Quadrature:
    """Adaptive-quadrature settings: absolute tolerance and recursion cap."""

    tol: float = 1e-8
    max_depth: int = 50

    def __post_init__(self):
        if not self.tol > 0:
            raise DomainError(f"tol must be > 0; got {self.tol}")
        if not self.max_depth >= 1:
            raise DomainError(f"max_depth must be >= 1; got {self.max_depth}")


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    quadrature: Quadrature | None = None,
) -> SimpsonResult:
    """Adaptive Simpson integration of f over [a, b].

    The integrand must map a float ndarray to an elementwise float ndarray;
    segment refinement is breadth-first so each iteration evaluates f once on
    the batch of new midpoints. A segment is accepted when its two-panel
    refinement changes the estimate by at most 15 * local tolerance (the
    classical Richardson criterion), and the extrapolated correction is kept.
    Segments still failing at max_depth are accepted with the
    depth_exceeded flag set on the result.

    Raises:
        NonFiniteIntegrand: if f returns NaN or infinity anywhere.
        DomainError: if b < a.
    """
    q = quadrature if quadrature is not None else Quadrature()
    a = float(a)
    b = float(b)
    if b < a:
        raise DomainError(f"integration limits must satisfy a <= b; got {a} > {b}")
    if a == b:
        return SimpsonResult(0.0, 0.0, False, 0)

    def evaluate(x: np.ndarray) -> np.ndarray:
        y = np.asarray(f(x), dtype=float)
        if y.shape != x.shape:
            raise NonFiniteIntegrand(
                f"integrand returned shape {y.shape} for input shape {x.shape}"
            )
        if not np.all(np.isfinite(y)):
            bad = x[~np.isfinite(y)][0]
            raise NonFiniteIntegrand(f"integrand not finite at x={bad!r}")
        return y

    first = evaluate(np.array([a, 0.5 * (a + b), b]))
    n_eval = 3
    # Per-segment state: left endpoint, width, f(left), f(mid), f(right),
    # local tolerance, depth.
    left = np.array([a])
    width = np.array([b - a])
    fl = first[:1]
    fm = first[1:2]
    fr = first[2:]
    tol = np.array([q.tol])
    depth = np.array([0])

    total = 0.0
    err_total = 0.0
    depth_exceeded = False

    while left.size:
        lm = left + 0.25 * width
        rm = left + 0.75 * width
        fnew = evaluate(np.concatenate([lm, rm]))
        n_eval += fnew.size
        flm = fnew[: left.size]
        frm = fnew[left.size :]

        s_whole = width / 6.0 * (fl + 4.0 * fm + fr)
        s_left = width / 12.0 * (fl + 4.0 * flm + fm)
        s_right = width / 12.0 * (fm + 4.0 * frm + fr)
        delta = s_left + s_right - s_whole

        converged = np.abs(delta) <= 15.0 * tol
        at_cap = depth >= q.max_depth
        accept = converged | at_cap
        if np.any(accept):
            total += float(np.sum(s_left[accept] + s_right[accept] + delta[accept] / 15.0))
            err_total += float(np.sum(np.abs(delta[accept]) / 15.0))
            if np.any(at_cap & ~converged):
                depth_exceeded = True

        split = ~accept
        if not np.any(split):
            break
        half = 0.5 * width[split]
        half_tol = 0.5 * tol[split]
        child_depth = depth[split] + 1
        # Each split segment becomes a left child [l, m] and a right child
        # [m, r]; the quarter-point values become the children's midpoints.
        left = np.concatenate([left[split], left[split] + half])
        width = np.concatenate([half, half])
        new_fl = np.concatenate([fl[split], fm[split]])
        new_fm = np.concatenate([flm[split], frm[split]])
        new_fr = np.concatenate([fm[split], fr[split]])
        fl, fm, fr = new_fl, new_fm, new_fr
        tol = np.concatenate([half_tol, half_tol])
        depth = np.concatenate([child_depth, child_depth])

    return SimpsonResult(total, err_total, depth_exceeded, n_eval)
