"""Run one cycloring CLI command in this process with every layer traced.

    PYTHONPATH=src python3 bench/cli_runner.py OUT_PREFIX -- ARGV...

Calls ``cycloring.cli.main(ARGV)`` with the tracing wrappers installed,
exits with its exit code, and at exit writes the per-layer table to
OUT_PREFIX.json and the spans to OUT_PREFIX.jsonl.
"""
from __future__ import annotations

import json
import sys

import tracing


def main() -> int:
    prefix, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.exit(__doc__)
    tracer = tracing.Tracer()
    tracer.request = 1
    tracer.install()
    import cycloring.cli
    try:
        return cycloring.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(prefix + ".jsonl")
        with open(prefix + ".json", "w") as fh:
            json.dump(tracer.table(), fh)


if __name__ == "__main__":
    sys.exit(main())
