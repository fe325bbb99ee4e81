"""The adaptive Simpson oracle in quadrature_oracle.py: exactness,
tolerance control, the depth-cap flag, and input validation."""

import math

import numpy as np
import pytest

from ambiq.exceptions import DomainError
from quadrature_oracle import Quadrature, SimpsonResult, adaptive_simpson


class TestAdaptiveSimpson:
    def test_polynomial_exact(self):
        # Simpson with Richardson is exact through degree 5.
        result = adaptive_simpson(lambda x: x**5 - 2 * x**3 + x, 0.0, 2.0)
        exact = 2.0**6 / 6 - 2 * 2.0**4 / 4 + 2.0**2 / 2
        assert result.value == pytest.approx(exact, abs=1e-12)

    def test_transcendental(self):
        result = adaptive_simpson(np.sin, 0.0, math.pi)
        assert result.value == pytest.approx(2.0, abs=1e-10)
        assert not result.depth_exceeded
        assert result.error_estimate <= 1e-8

    def test_sharp_peak(self):
        # Narrow Gaussian bump: forces real refinement.
        def f(x):
            return np.exp(-((x - 0.5) ** 2) / 2e-6)

        result = adaptive_simpson(f, 0.0, 1.0, Quadrature(tol=1e-10))
        exact = math.sqrt(2e-6 * math.pi)  # erf mass outside [0,1] is negligible
        assert result.value == pytest.approx(exact, rel=1e-7)
        assert result.n_evaluations > 100

    def test_tolerance_controls_effort(self):
        loose = adaptive_simpson(np.sin, 0.0, math.pi, Quadrature(tol=1e-3))
        tight = adaptive_simpson(np.sin, 0.0, math.pi, Quadrature(tol=1e-12))
        assert tight.n_evaluations > loose.n_evaluations

    def test_depth_cap_flagged_not_raised(self):
        # A discontinuity can never meet a tiny tolerance; the flag must be
        # set while a finite estimate is still returned.
        def step(x):
            return np.where(x < 1.0 / 3.0, 0.0, 1.0)

        result = adaptive_simpson(step, 0.0, 1.0, Quadrature(tol=1e-14, max_depth=8))
        assert result.depth_exceeded
        assert result.value == pytest.approx(2.0 / 3.0, abs=1e-2)

    def test_reversed_interval_rejected(self):
        with pytest.raises(DomainError):
            adaptive_simpson(np.sin, 1.0, 0.0)

    def test_empty_interval(self):
        result = adaptive_simpson(np.sin, 0.5, 0.5)
        assert result == SimpsonResult(0.0, 0.0, False, 0)

    def test_float_conversion(self):
        result = adaptive_simpson(lambda x: np.ones_like(x), 0.0, 3.0)
        assert float(result) == pytest.approx(3.0, abs=1e-12)

    def test_quadrature_validation(self):
        with pytest.raises(DomainError):
            Quadrature(tol=0.0)
        with pytest.raises(DomainError):
            Quadrature(max_depth=0)
