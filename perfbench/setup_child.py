"""One fresh-interpreter set-up of a workload, timed by its parent.

Usage: ``python perfbench/setup_child.py <workload> <seed>``.  Imports the
program, generates the workload's inputs exactly as a run does, prints
``READY``, then ``PROBE <ms>`` read in this same interpreter.
"""

from __future__ import annotations

import sys


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    if workload == "sweep_100k":
        import sweep

        sweep.build_matrix(seed)
    elif workload == "study_report":
        import study

        study.setup(seed)
    else:
        raise SystemExit(f"no set-up child for workload {workload!r}")
    print("READY", flush=True)
    from probe import probe_gap

    print(f"PROBE {probe_gap(3):.4f}", flush=True)


if __name__ == "__main__":
    main()
