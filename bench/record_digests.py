"""Record the protocol digest of the first ops of every workload, from the
root of a checkout.

    python3 bench/record_digests.py --seeds 0-20

For each workload and seed it runs the first ``FULL.min_ops`` ops, untraced,
and stores the digest of their protocol-fixed fields (verdicts, stage
reports and meters; the result dict of an attack op) in bench/digests.json.
A later run with a recorded seed marks every op of the workload failed when
its digest differs.  Re-record only when a change means to alter the tape,
the stages or the meters, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-20", help="a range such as 0-20, or a comma list")
    args = parser.parse_args(argv)
    run._import_program()
    import workloads
    from hostspeed import SpeedProbe
    from spread import parse_seeds

    recorded = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    count = workloads.FULL.min_ops
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(workloads.FULL)
        for seed in parse_seeds(args.seeds):
            items = workload.setup(seed, 0, workloads.Phases())
            loop = run.fixed_run(workload, items, seed, count, SpeedProbe())
            if not all(loop.ok):
                print(f"{name} seed {seed}: {loop.ok.count(False)} ops failed the gate; not recorded")
                return 1
            recorded.setdefault(name, {})[str(seed)] = loop.prefix
            print(f"{name} seed {seed}: {loop.prefix}", flush=True)
    run.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
