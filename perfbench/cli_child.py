"""Run the weakorder CLI once with every public function traced.

Takes the same arguments as ``python -m weakorder.cli`` and exits with the
same code.  The span summary goes to ``$PERFBENCH_SUMMARY_DIR/<pid>.json``;
the traced cli-cold phase of run.py reads and merges those files.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from spans import Tracer, traced
from weakorder import cli


def main(argv: list[str]) -> int:
    tracer = Tracer()
    with traced(tracer):
        tracer.active = True
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        tracer.active = False
    if code:
        tracer.errors["cli"] += 1
    out = Path(os.environ["PERFBENCH_SUMMARY_DIR"]) / f"{os.getpid()}.json"
    out.write_text(json.dumps(tracer.summary()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
