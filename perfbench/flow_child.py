"""Run the smoothot CLI with span tracing on, then dump the spans as JSON.

Usage: python3 perfbench/flow_child.py SPANS_OUT <smoothot arguments...>

The traced jko-cli rounds start this instead of `python -m smoothot.cli`,
so the per-layer spans come from inside the child that does the work.
"""

import json
import sys
from pathlib import Path

import tracing


def main():
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    import smoothot.cli

    try:
        code = smoothot.cli.main(argv)
    finally:
        tracer.uninstall()
        Path(spans_out).write_text(
            json.dumps({"spans": tracer.spans, "unresolved": tracer.unresolved}),
            encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
