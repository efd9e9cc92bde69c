"""Shared helpers for the benchmark suite.

The ablation and kernel-execution benches live here; the
paper's tables and figures are printed by ``repro-stencil table N`` /
``figure N`` and their claims checked by ``repro-stencil validate``.
"""


def emit(title: str, body: str) -> None:
    """Print a regenerated artifact under a banner (visible with -s / tee)."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")
