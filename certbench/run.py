"""Run one patchcert benchmark workload and print its result.

Usage, from the repository root:

    python3 certbench/run.py --workload cifar-block --seed 1 --seconds 10 --trace 0

Workloads: cifar-block, imagenet-column, imagenet-audit, cifar-train
(see harness.WORKLOADS). ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the run's provenance. The full record (provenance, per-image
certificates, gate failures) goes to ``.certbench/out/``, trained
checkpoints are cached in ``.certbench/cache/`` and the traced run's
spans are written to ``.certbench/out/<workload>.spans.jsonl``.
Exits 2 without a result when the patchcert sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "patchcert" / "__init__.py").is_file():
        print(f"certbench: no patchcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread: with two, any load on the second CPU of a 2-CPU
    # machine stalls OpenBLAS's spin-waiting workers and made an image
    # over ten times slower. Set before numpy loads; provenance records it.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from certbench import harness

    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"certbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("certbench: --seconds must be at least 1", file=sys.stderr)
        return 2

    work_dir = ROOT / ".certbench"
    result = harness.run(workload, args.seed, args.seconds, bool(args.trace), work_dir)
    provenance = harness.provenance(workload, args.seed, args.seconds, bool(args.trace), ROOT)
    out = work_dir / "out" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"provenance": provenance, **result}, indent=1, default=str) + "\n")
    for failure in result["failures"]:
        print(f"certbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
