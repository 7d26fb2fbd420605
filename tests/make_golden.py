"""Write tests/golden_artifacts.json: digests of every file run() writes.

Usage, from the root of a checkout: python3 tests/make_golden.py

For each builtin scenario under each protocol (the builtin seed, 600 s,
1 s windows, as the acceptance suite's ``timed_reports`` fixture runs
them), runs ``scenario.run`` into a temporary directory and records the
SHA-256 digest of every file in it, ``summary.csv`` and ``report.txt``
included. For each builtin it also records the digest of
``comparison.txt``, the text ``vanetsim compare`` writes for the
AODV and DSDV runs. ``tests/test_acceptance.py`` fails when a file
differs.
Regenerate only for a change that is meant to alter output, and say so
in that change.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_artifacts.json")
WINDOW = 1.0


def combo_key(name, protocol) -> str:
    return f"{name}/{protocol}"


def comparison_key(name) -> str:
    return f"{name}/comparison.txt"


def text_digest(text) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(out_dir) -> dict:
    """Relative path (with /) -> SHA-256 hex digest of each file in out_dir."""
    root = Path(out_dir)
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def main():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from vanetsim.scenario import (BUILTIN_SCENARIOS, builtin_scenario,
                                   compare, format_comparison, run)
    from vanetsim.simulation import PROTOCOLS

    golden = {}
    for name in BUILTIN_SCENARIOS:
        reports = []
        for protocol in PROTOCOLS:
            key = combo_key(name, protocol)
            with tempfile.TemporaryDirectory() as out:
                reports.append(run(builtin_scenario(name, protocol),
                                   out_dir=out, window=WINDOW))
                golden[key] = digests(out)
            print(key, len(golden[key]), "files", flush=True)
        golden[comparison_key(name)] = text_digest(
            format_comparison(compare(*reports)))
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
