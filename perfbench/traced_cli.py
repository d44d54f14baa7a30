"""Run one ``repro`` command in this fresh interpreter with layer probes.

Usage: ``python perfbench/traced_cli.py SPANS_JSON repro-args...``

Imports ``repro.cli`` under a ``cli.import`` span, wraps the layers'
entry points (:func:`probes.install_batch_probes`), calls
``repro.cli.main`` and writes the spans and counts to ``SPANS_JSON``
once the command has returned.  The exit code is the command's.
"""

from __future__ import annotations

import json
import sys

from probes import SpanRecorder, install_batch_probes


def main(argv: list[str]) -> int:
    out_path, command = argv[0], argv[1:]
    recorder = SpanRecorder()
    index = recorder.begin("cli.import")
    import repro.cli
    recorder.end(index)
    install_batch_probes(recorder)
    try:
        code = repro.cli.main(command)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as stream:
            json.dump(recorder.dump(), stream)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
