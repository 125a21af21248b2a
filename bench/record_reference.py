"""Record ``bench/reference.json`` from the current code at the reference seed.

    python3 bench/record_reference.py

Runs the first tasks of every workload at ``workloads.REFERENCE_SEED``,
checks their invariants, and stores each output's digest and summary.  Record
only from a commit whose results are trusted: later runs at the reference
seed are held to these results.
"""

import json
import sys

import workloads
from workloads import OUT, REFERENCE, REFERENCE_SEED, REFERENCE_Z, WORKLOADS

# More than one 34 s run completes, even in the host's fast state.
TASKS = {"montecarlo": 240, "exact-kernels": 220, "permitted-counting": 200}


def _rounded(value):
    """Summaries to 7 significant digits: within ``PAIRED_REL_TOL`` of the full values."""
    if isinstance(value, float):
        return float(f"{value:.7g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def main() -> int:
    cli = workloads.import_shallowbs().cli
    OUT.mkdir(exist_ok=True)
    out = OUT / "reference.out"
    recorded = {}
    for workload in WORKLOADS:
        entries = []
        for index in range(TASKS[workload]):
            argv = workloads.task_argv(workload, REFERENCE_SEED, index, out)
            if cli.main(argv) != 0:
                raise SystemExit(f"{workload} task {index} failed: {argv}")
            summary, digest = workloads.check_output(argv, out.read_bytes())
            entries.append({"sha256": digest, "summary": _rounded(summary)})
        recorded[workload] = entries
        print(f"{workload}: {len(entries)} tasks recorded", file=sys.stderr)
    REFERENCE.write_text(json.dumps({"seed": REFERENCE_SEED, "z": REFERENCE_Z, "workloads": recorded},
                                    separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
