#!/usr/bin/env python
"""Calibration harness: model output vs. the paper's published numbers.

Run after touching any profile parameter.  Prints Table 3 (fraction of
Roofline), Table 5 (fraction of theoretical AI) and the headline codegen
speed-up ratios, side by side with the paper's values.
"""

from __future__ import annotations

from repro import dsl, gpu
from repro.results.report import (
    PAPER_CODEGEN_GAINS,
    PAPER_OVERALL_P,
    PAPER_TABLE3,
    PAPER_TABLE5,
    STENCILS,
)


def roofline_fraction(res: gpu.SimulationResult) -> float:
    plat = res.platform
    bw = plat.arch.hbm_bw * plat.profile.mixbench_bw_frac
    pk = plat.arch.peak_fp64 * plat.profile.mixbench_fp_frac
    ceiling = min(pk, res.arithmetic_intensity * bw)
    return res.gflops * 1e9 / ceiling


def theoretical_ai_fraction(res: gpu.SimulationResult, stencil) -> float:
    return res.arithmetic_intensity / dsl.theoretical_ai(stencil)


def main() -> None:
    plats = gpu.study_platforms()
    results = {}
    for name in STENCILS:
        s = dsl.by_name(name).build()
        for plat in plats:
            for variant in gpu.VARIANTS:
                results[(name, plat.name, variant)] = gpu.simulate(
                    s, variant, plat, stencil_name=name
                )

    print("=== Table 3: fraction of Roofline, bricks codegen (model/paper) ===")
    cols = [p.name for p in plats]
    print(f"{'':>7}" + "".join(f"{c:>18}" for c in cols))
    for name in STENCILS:
        s = dsl.by_name(name).build()
        row = []
        for p, paper in zip(plats, PAPER_TABLE3[name][:-1]):
            frac = roofline_fraction(results[(name, p.name, "bricks_codegen")])
            row.append(f"{100*frac:5.0f}/{paper:<3d}")
        print(f"{name:>7}" + "".join(f"{c:>18}" for c in row))

    print("\n=== Table 5: fraction of theoretical AI, bricks codegen (model/paper) ===")
    for name in STENCILS:
        s = dsl.by_name(name).build()
        row = []
        for p, paper in zip(plats, PAPER_TABLE5[name][:-1]):
            frac = theoretical_ai_fraction(results[(name, p.name, "bricks_codegen")], s)
            row.append(f"{100*frac:5.0f}/{paper:<3d}")
        print(f"{name:>7}" + "".join(f"{c:>18}" for c in row))

    print("\n=== Codegen-isolation speed-ups (array time vs array_codegen time) ===")
    for p in plats:
        star_gain = max(
            results[(n, p.name, "array")].time_s
            / results[(n, p.name, "array_codegen")].time_s
            for n in ("7pt", "13pt", "19pt", "25pt")
        )
        cube_gain = max(
            results[(n, p.name, "array")].time_s
            / results[(n, p.name, "array_codegen")].time_s
            for n in ("27pt", "125pt")
        )
        print(f"  {p.name:>12}: star {star_gain:5.1f}x  cube {cube_gain:5.1f}x")

    print("\n=== Headline codegen speed-ups (bricks_codegen time vs array time) ===")
    for p in plats:
        star_gain = max(
            results[(n, p.name, "array")].time_s
            / results[(n, p.name, "bricks_codegen")].time_s
            for n in ("7pt", "13pt", "19pt", "25pt")
        )
        cube_gain = max(
            results[(n, p.name, "array")].time_s
            / results[(n, p.name, "bricks_codegen")].time_s
            for n in ("27pt", "125pt")
        )
        star, cube = PAPER_CODEGEN_GAINS[p.name]
        print(
            f"  {p.name:>12}: star {star_gain:5.1f}x  cube {cube_gain:5.1f}x"
            f"   (paper: {star} star / {cube} cube)"
        )

    print("\n=== Bytes moved, A100 (Figure 5 right; minimum 2.15 GB) ===")
    for variant in gpu.VARIANTS:
        cu = results[("13pt", "A100-CUDA", variant)].hbm_gbytes
        sy = results[("13pt", "A100-SYCL", variant)].hbm_gbytes
        print(f"  {variant:>15}: CUDA {cu:5.2f} GB   SYCL {sy:5.2f} GB")
    print("\n=== Bytes moved, MI250X (Figure 6 right) ===")
    for variant in gpu.VARIANTS:
        hip = results[("13pt", "MI250X-HIP", variant)].hbm_gbytes
        sy = results[("13pt", "MI250X-SYCL", variant)].hbm_gbytes
        print(f"  {variant:>15}: HIP  {hip:5.2f} GB   SYCL {sy:5.2f} GB")

    # Aggregate Pennycook-style harmonic means over the 5 platforms.
    def pennycook(vals):
        return len(vals) / sum(1.0 / v for v in vals)

    p3 = []
    p5 = []
    for name in STENCILS:
        s = dsl.by_name(name).build()
        f3 = [roofline_fraction(results[(name, p.name, "bricks_codegen")]) for p in plats]
        f5 = [
            theoretical_ai_fraction(results[(name, p.name, "bricks_codegen")], s)
            for p in plats
        ]
        p3.append(pennycook(f3))
        p5.append(pennycook(f5))
    overall3 = pennycook(p3)
    overall5 = pennycook(p5)
    print(f"\nOverall P (Table 3): {100*overall3:.0f}%  "
          f"(paper: {PAPER_OVERALL_P[3]}%)")
    print(f"Overall P (Table 5): {100*overall5:.0f}%  "
          f"(paper: {PAPER_OVERALL_P[5]}%)")


if __name__ == "__main__":
    main()
