"""Set-up probe: a fresh interpreter imports shallowbs and runs one warm-up task.

    python3 bench/probe.py <workload> <seed>

Prints ``ready`` once the warm-up task has finished; ``run.py`` times the
interval from launching this process to that line.
"""

import sys

import workloads


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    cli = workloads.import_shallowbs().cli
    out = workloads.OUT / "probe.out"
    rc = cli.main(workloads.task_argv(workload, seed, -1, out))
    print("ready" if rc == 0 else f"warm-up task exited with {rc}", flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
