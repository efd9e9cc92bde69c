#!/usr/bin/env python
"""Calibration harness: model output vs. the paper's published numbers.

Run after touching any profile parameter.  Prints Table 3 (fraction of
Roofline), Table 5 (fraction of theoretical AI), the codegen speed-up
ratios and the bytes moved, side by side with the paper's values.
Everything is read from one ``run_study()`` through the functions that
render ``EXPERIMENTS.md`` (``harness.table3`` / ``table5`` and
``speedups_over_array``), so both print the same numbers.
"""

from __future__ import annotations

from repro import harness
from repro.validate.claims import (
    PAPER_CODEGEN_GAINS,
    PAPER_OVERALL_P,
    PAPER_TABLE3,
    PAPER_TABLE5,
    speedups_over_array,
)


def print_cells(table: harness.PortabilityTable, paper) -> None:
    """One ``model/paper`` row per stencil (percent, P column omitted)."""
    for name, (effs, _) in table.rows.items():
        cells = [
            f"{100 * e:5.0f}/{pv:<3d}" for e, pv in zip(effs, paper[name][:-1])
        ]
        print(f"{name:>7}" + "".join(f"{c:>18}" for c in cells))


def main() -> None:
    study = harness.run_study()
    table3 = harness.table3(study)
    table5 = harness.table5(study)

    print("=== Table 3: fraction of Roofline, bricks codegen (model/paper) ===")
    print(f"{'':>7}" + "".join(f"{c:>18}" for c in table3.platform_names))
    print_cells(table3, PAPER_TABLE3)

    print("\n=== Table 5: fraction of theoretical AI, bricks codegen (model/paper) ===")
    print_cells(table5, PAPER_TABLE5)

    print("\n=== Codegen-isolation speed-ups (array time vs array_codegen time) ===")
    for pname, (star, cube) in speedups_over_array(study, "array_codegen").items():
        print(f"  {pname:>12}: star {star:5.1f}x  cube {cube:5.1f}x")

    print("\n=== Headline codegen speed-ups (bricks_codegen time vs array time) ===")
    for pname, (star_gain, cube_gain) in speedups_over_array(study).items():
        star, cube = PAPER_CODEGEN_GAINS[pname]
        print(
            f"  {pname:>12}: star {star_gain:5.1f}x  cube {cube_gain:5.1f}x"
            f"   (paper: {star} star / {cube} cube)"
        )

    print("\n=== Bytes moved, A100 (Figure 5 right; minimum 2.15 GB) ===")
    for variant in study.config.variants:
        cu = study.get("13pt", "A100-CUDA", variant).hbm_gbytes
        sy = study.get("13pt", "A100-SYCL", variant).hbm_gbytes
        print(f"  {variant:>15}: CUDA {cu:5.2f} GB   SYCL {sy:5.2f} GB")
    print("\n=== Bytes moved, MI250X (Figure 6 right) ===")
    for variant in study.config.variants:
        hip = study.get("13pt", "MI250X-HIP", variant).hbm_gbytes
        sy = study.get("13pt", "MI250X-SYCL", variant).hbm_gbytes
        print(f"  {variant:>15}: HIP  {hip:5.2f} GB   SYCL {sy:5.2f} GB")

    print(f"\nOverall P (Table 3): {100 * table3.overall:.0f}%  "
          f"(paper: {PAPER_OVERALL_P[3]}%)")
    print(f"Overall P (Table 5): {100 * table5.overall:.0f}%  "
          f"(paper: {PAPER_OVERALL_P[5]}%)")


if __name__ == "__main__":
    main()
