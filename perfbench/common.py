"""Puts the checkout's package source on ``sys.path`` for the benchmark.

Every benchmark script imports this module first. It refuses to fall back
to an installed copy of the package: a checkout without ``src/`` cannot be
benchmarked, and the scripts exit with an error instead of a result.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# scratch files of a run (stored results, spans, the run record); git-ignored
OUT = ROOT / ".perfbench_out"

if not (SRC / "censorprobe" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no package source at {SRC}")
sys.path.insert(0, str(SRC))

import censorprobe  # noqa: E402

if Path(censorprobe.__file__).resolve().parent != SRC / "censorprobe":
    raise SystemExit(f"perfbench: censorprobe imported from {censorprobe.__file__}")
