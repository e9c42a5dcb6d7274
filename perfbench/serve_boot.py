"""Run ``wqrtq serve`` with optional tracing wrappers.

Usage: ``python perfbench/serve_boot.py <wqrtq serve arguments>``.

When ``PERFBENCH_TRACE_DIR`` is set, the module installs
:mod:`spans` at import time and writes this process's spans to
``<dir>/spans-<pid>.json`` at exit.  Spawned pool workers import the
parent's main module as ``__mp_main__``, so they run the same
top-level code and trace their own engine layers too.
"""

import atexit
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
sys.path.insert(0, _HERE)

_TRACE_DIR = os.environ.get("PERFBENCH_TRACE_DIR")
if _TRACE_DIR:
    import spans

    spans.install()
    atexit.register(spans.RECORDER.dump,
                    os.path.join(_TRACE_DIR, f"spans-{os.getpid()}.json"))

if __name__ == "__main__":
    from repro.cli import main

    sys.exit(main(["serve", *sys.argv[1:]]))
