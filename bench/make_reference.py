"""Write bench/reference.json: artifact digests of the current code.

Usage, from the root of a checkout: python3 bench/make_reference.py

For every workload and every seed in REFERENCE_SEEDS, runs the input
once and records the SHA-256 digest of its deterministic artifacts
(trace.txt, metrics/<flow>/*.dat, paths.log). The benchmark fails any
repetition whose digest differs. Regenerate only for a change that is
meant to alter simulation output, and say so in that change.
"""

import json
import sys

from run import REFERENCE, Run
from workloads import WORKLOADS

# covers the default seeds (1 for the builtins, 7 for rwp-aodv)
REFERENCE_SEEDS = range(0, 21)


def main():
    reference = {}
    for name, workload in WORKLOADS.items():
        reference[name] = {}
        for seed in REFERENCE_SEEDS:
            sample = Run(workload, seed, seconds=0).repetition("full")
            if sample is None:
                return 1
            reference[name][str(seed)] = sample["digest"]
            print(name, seed, sample["digest"][:16], flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
