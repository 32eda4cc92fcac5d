"""Run the stabkit CLI with per-layer spans and write them to a JSON file.

    python3 perfbench/cli_traced.py SPANS.json analyze system.stab --json

The cold-cli workload's traced run starts this instead of
``python -m stabkit.cli``; importing stabkit is not traced (the cli.import
metrics cover it), everything after the import is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import stabkit.cli  # noqa: E402

from perfbench.tracing import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        return stabkit.cli.main(argv)
    finally:
        tracer.uninstall()
        out_path.write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    raise SystemExit(main())
