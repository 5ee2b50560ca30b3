"""Run ``python -m repro.service`` with the benchmark's timing wrappers.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python3 -m perfbench.service_launcher SPANS.json [service flags...]

Installs the wrappers of :func:`perfbench.spans.service_points`, hands
the remaining arguments to the service's own entry point, and after the
service stops (``POST /shutdown``) writes the recorded spans to
``SPANS.json``.
"""

from __future__ import annotations

import json
import sys

from perfbench import spans


def main(argv: list[str]) -> int:
    spans_path, service_argv = argv[0], argv[1:]
    from repro.service.__main__ import main as service_main

    recorder = spans.SpanRecorder()
    with spans.installed(recorder, spans.service_points()):
        code = service_main(service_argv)
    with open(spans_path, "w") as stream:
        json.dump(recorder.to_json(), stream)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
