"""Run ``dersec`` command-line arguments under the tracer and write the span
aggregate as JSON, so the traced ``cli-sweep`` run sees inside the process.

    PYTHONPATH=src python3 bench/cli_traced.py TRACE.json sweep --config ... --out ...
"""

import json
import sys
from pathlib import Path

from tracer import Tracer

import dersec.cli

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = dersec.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        Path(sys.argv[1]).write_text(json.dumps(tracer.snapshot()))
    sys.exit(code)
