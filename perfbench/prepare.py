"""Set-up for one workload, run as its own process by run.py.

  python3 perfbench/prepare.py WORKLOAD SEED OUT_DIR [--tiny]

Imports the package, reads config files and writes the workload's inputs
(data, checkpoint, generated scores and traces) into OUT_DIR. Its wall time,
measured by the parent, is the benchmark's set-up time.
"""

import argparse

import env

env.pin_threads()
env.use_checkout_source()

import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("out_dir")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    prepare, _ = workloads.WORKLOADS[args.workload]
    prepare(args.seed, args.out_dir, args.tiny)


if __name__ == "__main__":
    main()
