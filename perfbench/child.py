"""Run one ``tdq`` command in this interpreter with the tracer installed.

Usage: python3 perfbench/child.py SPANS_OUT tdq-arguments...

Behaves like the ``tdq`` console script (same exit code), and writes the
spans and counters of the command to SPANS_OUT.
"""

import sys

import tracer as spans  # the benchmark's tracer, next to this file


def main() -> int:
    out_path, args = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    from tdq.cli import main as tdq_main

    code = 0
    try:
        tracer.call(f"cli.{args[0]}", tdq_main.main, args=args, prog_name="tdq")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        spans.dump(out_path, tracer.spans, tracer.snapshot_counts())
    return code


if __name__ == "__main__":
    sys.exit(main())
