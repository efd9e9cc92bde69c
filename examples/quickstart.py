#!/usr/bin/env python
"""Quickstart: define a stencil in the DSL, run it everywhere, profile it.

Reproduces in miniature what the paper does: the radius-2 star stencil
(Figure 1) is built from the python DSL, executed through the brick
layout + vector code generator, checked against a naive reference, and
profiled on all five (GPU, programming model) platforms of the study.
"""

import numpy as np

from repro import dsl, gpu, kernels
from repro.reference import apply_interior, random_field


def build_stencil_from_dsl():
    """The paper's Figure 1, verbatim DSL."""
    i, j, k = dsl.Index(0), dsl.Index(1), dsl.Index(2)
    inp, out = dsl.Grid("in", 3), dsl.Grid("out", 3)
    a0, a1, a2 = (dsl.ConstRef(f"MPI_B{n}") for n in range(3))
    calc = (
        a0 * inp(i, j, k)
        + a1 * (inp(i + 1, j, k) + inp(i - 1, j, k)
                + inp(i, j + 1, k) + inp(i, j - 1, k)
                + inp(i, j, k + 1) + inp(i, j, k - 1))
        + a2 * (inp(i + 2, j, k) + inp(i - 2, j, k)
                + inp(i, j + 2, k) + inp(i, j - 2, k)
                + inp(i, j, k + 2) + inp(i, j, k - 2))
    )
    return out(i, j, k).assign(calc)


def main():
    stencil = build_stencil_from_dsl()
    print(f"stencil: {stencil.description()}, "
          f"{stencil.flops_per_point()} FLOPs/point, "
          f"theoretical AI {dsl.theoretical_ai(stencil):.4f}")

    bindings = {"MPI_B0": -7.5, "MPI_B1": 1.0, "MPI_B2": 0.25}
    domain = (64, 16, 16)  # (ni, nj, nk)

    # Execute through bricks + vector codegen and verify against naive.
    plat = gpu.platform("A100", "CUDA")
    dense = random_field((16 + 4, 16 + 4, 64 + 4), seed=0)
    run = kernels.run("bricks_codegen", stencil, plat, domain=domain,
                      bindings=bindings, input_dense=dense,
                      stencil_name="13pt")
    expected = apply_interior(stencil, dense, bindings)
    err = np.abs(run.output - expected).max()
    print(f"\nbricks codegen vs naive reference: max |err| = {err:.2e}")
    assert err < 1e-12

    # Profile the 512^3 sweep on every platform of the study.
    print("\nSimulated 512^3 sweep (the paper's benchmark):")
    for plat in gpu.study_platforms():
        for variant in gpu.VARIANTS:
            res = gpu.simulate(stencil, variant, plat, stencil_name="13pt")
            print(f"  {res.describe()}  {res.time_s * 1e3:7.3f} ms")


if __name__ == "__main__":
    main()
