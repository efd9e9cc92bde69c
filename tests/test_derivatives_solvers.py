"""Tests for the finite-difference factories and the packaged solvers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro import dsl, gpu
from repro.dsl.derivatives import (
    biharmonic,
    compose,
    gradient_component,
    laplacian,
)
from repro.errors import DSLError
from repro.reference import apply_interior, apply_periodic, random_field
from repro.reference.solvers import HeatSolver, WaveSolver

PLAT = gpu.platform("PVC", "SYCL")  # 16-wide tiles suit small domains


class TestLaplacian:
    def test_second_order_is_7pt(self):
        lap = laplacian(order=2)
        assert lap.points == 7 and lap.radius == 1
        assert lap.weights()[(0, 0, 0)] == pytest.approx(-6.0)

    @pytest.mark.parametrize("order,points", [(2, 7), (4, 13), (6, 19), (8, 25)])
    def test_orders_give_paper_stencils(self, order, points):
        lap = laplacian(order=order)
        assert lap.points == points
        assert lap.shape_class() == "star"

    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    def test_exact_on_quadratic(self, order):
        # laplacian(x^2 + 2y^2 + 3z^2) = 12, exactly, at every order.
        n, r = 16, laplacian(order=order).radius
        ax = np.arange(n, dtype=np.float64)
        z, y, x = np.meshgrid(ax, ax, ax, indexing="ij")
        field = x**2 + 2 * y**2 + 3 * z**2
        out = apply_interior(laplacian(order=order), field, {})
        np.testing.assert_allclose(out, 12.0, rtol=1e-10)

    @pytest.mark.parametrize("order", [4, 8])
    def test_convergence_order(self, order):
        # Error on sin(x) shrinks ~2^order per halving of h.
        errs = []
        for n in (16, 32):
            h = 2 * math.pi / n
            x = np.arange(n) * h
            field = np.broadcast_to(np.sin(x), (n, n, n)).copy()
            out = apply_periodic(laplacian(order=order, h=h), field, {})
            errs.append(np.abs(out + field).max())
        rate = math.log2(errs[0] / errs[1])
        assert rate == pytest.approx(order, abs=0.4)

    def test_weights_sum_to_zero(self):
        for order in (2, 4, 6, 8):
            total = sum(laplacian(order=order).weights().values())
            assert total == pytest.approx(0.0, abs=1e-12)

    def test_h_scaling(self):
        w1 = laplacian(order=2, h=1.0).weights()[(1, 0, 0)]
        w2 = laplacian(order=2, h=0.5).weights()[(1, 0, 0)]
        assert w2 == pytest.approx(4 * w1)

    def test_bad_order(self):
        with pytest.raises(DSLError):
            laplacian(order=3)


class TestGradient:
    def test_antisymmetric(self):
        g = gradient_component(0, order=4)
        w = g.weights()
        assert w[(1, 0, 0)] == pytest.approx(-w[(-1, 0, 0)])

    def test_exact_on_linear(self):
        n = 12
        ax = np.arange(n, dtype=np.float64)
        z, y, x = np.meshgrid(ax, ax, ax, indexing="ij")
        for dim, expect in ((0, 3.0), (1, -2.0), (2, 7.0)):
            field = 3 * x - 2 * y + 7 * z
            out = apply_interior(gradient_component(dim, order=2), field, {})
            np.testing.assert_allclose(out, expect, rtol=1e-12)

    def test_bad_dim(self):
        with pytest.raises(DSLError):
            gradient_component(3)


class TestBiharmonic:
    def test_radius_and_center(self):
        b = biharmonic()
        assert b.radius == 2
        # laplacian^2 centre weight in 3D: 6^2 + 6 = 42.
        assert b.weights()[(0, 0, 0)] == pytest.approx(42.0)

    def test_annihilates_cubics(self):
        n = 16
        ax = np.arange(n, dtype=np.float64)
        z, y, x = np.meshgrid(ax, ax, ax, indexing="ij")
        field = x**3 + y**3 - z**3 + x * y * z
        out = apply_interior(biharmonic(), field, {})
        np.testing.assert_allclose(out, 0.0, atol=1e-8)


class TestCompose:
    def test_composition_radius_adds(self):
        s = dsl.star(1)
        c = compose(s, s)
        assert c.radius == 2

    def test_composition_matches_sequential_application(self):
        case = dsl.by_name("7pt")
        s, b = case.build(), case.default_bindings()
        c = compose(s, s)
        field = random_field((12, 12, 12), seed=1)
        two_steps = apply_periodic(s, apply_periodic(s, field, b), b)
        composed = apply_periodic(c, field, b)
        np.testing.assert_allclose(composed, two_steps, rtol=1e-12, atol=1e-12)

    def test_symbolic_coefficients_multiply(self):
        s = dsl.star(1)
        c = compose(s, s)
        # The centre tap of the square holds B0^2 + 6 B1^2 terms.
        centre = c.taps[(0, 0, 0)]
        val = centre.evaluate({"B0": 2.0, "B1": 3.0})
        assert val == pytest.approx(2.0**2 + 6 * 3.0**2)

    def test_dimension_mismatch(self):
        with pytest.raises(DSLError):
            compose(dsl.star(1), dsl.star(1, ndim=2))

    def test_cancellation_detected(self):
        plus = dsl.from_weights({(0, 0, 0): 1.0})
        minus = dsl.from_weights({(0, 0, 0): -1.0})
        c = compose(plus, minus)
        assert c.weights()[(0, 0, 0)] == -1.0
        # (1 + x)(1 - x) = 1 - x^2: the x taps cancel and are dropped.
        a = dsl.from_weights({(0, 0, 0): 1.0, (1, 0, 0): 1.0})
        b = dsl.from_weights({(0, 0, 0): 1.0, (1, 0, 0): -1.0})
        assert compose(a, b).weights() == {(0, 0, 0): 1.0, (2, 0, 0): -1.0}

    def test_annihilation_raises(self):
        tiny = dsl.from_weights({(0, 0, 0): 1e-200})
        with pytest.raises(DSLError, match="annihilated"):
            compose(tiny, tiny)

    @settings(max_examples=15, deadline=None)
    @given(
        w1=hst.floats(-2, 2).filter(lambda v: abs(v) > 1e-3),
        w2=hst.floats(-2, 2).filter(lambda v: abs(v) > 1e-3),
        seed=hst.integers(0, 30),
    )
    def test_composition_property(self, w1, w2, seed):
        a = dsl.from_weights({(0, 0, 0): w1, (1, 0, 0): 0.5, (0, -1, 0): -0.25})
        b = dsl.from_weights({(0, 0, 0): w2, (0, 0, 1): 1.0})
        c = compose(b, a)
        f = random_field((8, 8, 8), seed=seed)
        np.testing.assert_allclose(
            apply_periodic(c, f),
            apply_periodic(b, apply_periodic(a, f)),
            rtol=1e-10, atol=1e-10,
        )


class TestHeatSolver:
    def test_energy_decays_monotonically(self):
        solver = HeatSolver(domain=(32, 16, 16), platform=PLAT)
        rng = np.random.default_rng(0)
        solver.set_interior(np.abs(rng.standard_normal((16, 16, 32))))
        e0 = solver.thermal_energy()
        energies = [e0]
        for _ in range(5):
            solver.step()
            energies.append(solver.thermal_energy())
        assert all(a >= b for a, b in zip(energies, energies[1:]))
        assert solver.steps_taken == 5

    def test_matches_reference(self):
        solver = HeatSolver(domain=(32, 16, 16), platform=PLAT, order=2)
        rng = np.random.default_rng(1)
        init = rng.standard_normal((16, 16, 32))
        solver.set_interior(init)
        ref = solver.u.copy()
        solver.step(3)
        for _ in range(3):
            ref[1:-1, 1:-1, 1:-1] = apply_interior(solver._stencil, ref, {})
        np.testing.assert_allclose(solver.interior(), ref[1:-1, 1:-1, 1:-1],
                                   rtol=1e-12, atol=1e-12)

    def test_bad_interior_shape(self):
        solver = HeatSolver(domain=(32, 16, 16), platform=PLAT)
        with pytest.raises(Exception):
            solver.set_interior(np.zeros((4, 4, 4)))


class TestWaveSolver:
    def test_energy_approximately_conserved(self):
        solver = WaveSolver(domain=(32, 16, 16), platform=PLAT, order=2,
                            cfl=0.2)
        # Smooth Gaussian pulse (high-frequency content makes the
        # one-sided energy diagnostic oscillate).
        zz, yy, xx = np.meshgrid(
            np.arange(16), np.arange(16), np.arange(32), indexing="ij"
        )
        bump = np.exp(-((xx - 16.0) ** 2 + (yy - 8.0) ** 2 + (zz - 8.0) ** 2) / 12.0)
        solver.set_initial(bump, bump)
        solver.step()
        e0 = solver.energy()
        solver.step(10)
        e1 = solver.energy()
        # Leapfrog conserves a *modified* discrete energy; the simple
        # diagnostic here stays within a modest band of its start until
        # the pulse reaches the boundary.
        assert 0.5 * e0 < e1 < 1.5 * e0

    def test_radius_matches_order(self):
        assert WaveSolver(domain=(32, 16, 16), platform=PLAT, order=8).radius == 4
