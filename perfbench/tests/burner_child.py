"""``serve_child.py`` with a planted CPU burner: a self-test's server.

Usage: as ``serve_child.py``.  While the server runs a job, a second
process spins on the other CPU, and keeps spinning for
:data:`SPIN_AFTER_S` after the job, the way BLAS helper threads spin
after a call returns.  The burner exits once its parent is gone.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Seconds the burner keeps spinning after a job ends.
SPIN_AFTER_S = 0.02


def burn(busy, until, parent: int) -> None:
    while os.getppid() == parent:
        if not (busy.is_set() or time.monotonic() < until.value):
            busy.wait(0.5)


def planted(fn, busy, until):
    def wrapper(*args, **kwargs):
        busy.set()
        try:
            return fn(*args, **kwargs)
        finally:
            until.value = time.monotonic() + SPIN_AFTER_S
            busy.clear()

    return wrapper


def main(argv: list) -> int:
    import repro.serve.orchestrator as orchestrator
    import serve_child

    ctx = multiprocessing.get_context("fork")
    busy, until = ctx.Event(), ctx.Value("d", 0.0, lock=False)
    ctx.Process(target=burn, args=(busy, until, os.getpid()), daemon=True).start()
    for name in ("microbatch_study_points", "run_study"):
        setattr(orchestrator, name, planted(getattr(orchestrator, name), busy, until))
    return serve_child.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
