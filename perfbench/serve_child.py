"""``repro-stencil serve`` run by the benchmark, optionally traced.

Usage: ``python perfbench/serve_child.py [--trace-out FILE] serve ...``.
Runs the program's own CLI entry point with the given arguments.  Once
the server has printed its ``serving on`` line, this interpreter prints
``PROBE <ms>``, the host speed its start-up ran at, and then serves.  With
``--trace-out`` the per-layer wrappers are installed first, SIGUSR1 drops
the spans recorded so far (the benchmark sends it after warm-up; this
prints ``RESET`` once done), and the span totals are written to FILE
when the server exits.
"""

from __future__ import annotations

import json
import signal
import sys


def main(argv: list) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]

    import layers
    from probe import probe_gap
    from repro.cli import main as cli_main
    from repro.serve import StudyServer

    recorder = layers.Recorder()
    if trace_out:
        layers.install(recorder)

        def reset(signum, frame):
            recorder.clear()
            print("RESET", flush=True)

        signal.signal(signal.SIGUSR1, reset)
    serve_forever = StudyServer.serve_forever

    def probed_serve_forever(self, *args, **kwargs):
        print(f"PROBE {probe_gap(3):.4f}", flush=True)
        return serve_forever(self, *args, **kwargs)

    StudyServer.serve_forever = probed_serve_forever
    code = cli_main(argv)
    if trace_out:
        with open(trace_out, "w") as f:
            json.dump(recorder.totals(), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
