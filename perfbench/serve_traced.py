"""``repro serve`` with the benchmark's span wrappers and the library's
telemetry switched on, for the traced run of the service workloads.

Usage: ``serve_traced.py SPANS_PATH [repro serve flags...]``.  The
daemon serves until SIGTERM drains it; the spans recorded in this
process are then written to ``SPANS_PATH``.
"""

import sys

from tracing import LIBRARY_TARGETS, Tracer, import_all


def main() -> int:
    spans_path, serve_args = sys.argv[1], sys.argv[2:]
    import repro.telemetry as telemetry
    from repro.cli import main as repro_main

    import_all()
    tracer = Tracer()
    tracer.install(LIBRARY_TARGETS)
    telemetry.enable()
    try:
        return repro_main(["serve", *serve_args])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
