"""Benchmark entry point: run the antinomy CLI on seeded workloads.

    python3 benchmarks/run.py                      # every workload, both modes
    python3 benchmarks/run.py --workload detect-prose --seed 3 --seconds 20 --trace 0

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is nonzero when an
output check fails or the checkout holds no antinomy sources.
"""
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "antinomy" / "cli.py").is_file():
        sys.exit(f"error: no antinomy sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    from bench import main
    sys.exit(main())
