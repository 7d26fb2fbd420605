"""Host-time benchmark of complete vanetsim runs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload long-aodv --seed 1 --seconds 60 --trace 0

Each repetition runs ``vanetsim.scenario.run(config, out_dir)`` once in a
fresh child interpreter (bench/child.py), one child at a time, importing
vanetsim from ``src/`` of this checkout. Repetitions continue for about
``--seconds`` seconds. With ``--trace 0`` the last line of standard output
is a JSON object holding the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of traced repetitions, and untraced
repetitions of the same input give the tracing overhead.

Every repetition's deterministic artifacts are hashed and compared with
bench/reference.json (digests of the commit that defined the benchmark)
and with the run's other repetitions. Any difference, and any repetition
that raises, is a failed run and is printed.

Results, with provenance, are also written to
``.bench_out/results/<workload>-seed<seed>-trace<0|1>.json``; a generated
scenario document is saved beside them. See bench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src" / "vanetsim"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"

# (name, unit, lower is better, power of the machine-speed scale applied
# to the host value); BENCHMARK.json lists the same names
END_TO_END = (
    ("wall_s", "s", True, 1),
    ("setup_s", "s", True, 1),
    ("simulate_s", "s", True, 1),
    ("output_s", "s", True, 1),
    ("frames_per_s", "frames/s", False, -1),
    ("peak_rss_mb", "MiB", True, 0),
)
# Per-layer metrics of the traced run that the result line carries. The
# per-protocol self times (aodv.*.self_s, dsdv.*.self_s, dsdv.ns_per_row)
# and radio.link_break_time.self_s are exactly zero on the workloads that
# never run that code, so the result line carries routing.*.self_s in
# their place; the printed table and the record keep all of them.
PER_LAYER_RESULT = (
    "engine.events", "engine.events.rx", "engine.events.tx",
    "engine.events.tick", "engine.events.rto", "engine.events.rreq-timer",
    "engine.events.linkwatch", "engine.events.dsdv-periodic",
    "engine.events.dsdv-trigger", "engine.events.motion",
    "engine.events.waypoint", "engine.self_s", "engine.cancelled_share",
    "radio.transmit.calls", "radio.transmit.self_s",
    "radio.neighbors.calls", "radio.neighbors.self_s",
    "radio.in_range.calls", "radio.in_range.self_s",
    "radio.link_break_time.calls", "radio.neighbor_hit_ratio",
    "radio.rx_per_broadcast",
    "mobility.position_at.calls", "mobility.position_at.self_s",
    "mobility.set_motion.calls", "mobility.set_motion.self_s",
    "mobility.reads_per_write",
    "aodv.on_frame.calls", "aodv.send_packet.calls",
    "aodv.rreq_forward_ratio",
    "dsdv.on_frame.calls", "dsdv.send_packet.calls", "dsdv.rows",
    "routing.on_frame.self_s", "routing.send_packet.self_s",
    "transport.on_ack.calls", "transport.on_ack.self_s",
    "transport.on_data.calls", "transport.on_data.self_s",
    "transport.retransmit_share",
    "metrics.tap.calls", "metrics.tap.self_s",
    "metrics.series.calls", "metrics.series.self_s",
    "metrics.trace_text.self_s", "metrics.trace_lines",
    "scenario.build.self_s", "scenario.output.self_s",
    "scenario.bytes_written",
    "trace.overhead_ratio", "trace.wall_s", "trace.unwrapped_s",
)
# no run may take longer than this, whatever --seconds says
HARD_LIMIT_S = 170.0
# share of a traced run's time spent on untraced repetitions, which give
# the base of trace.overhead_ratio
UNTRACED_SHARE = 1 / 3
# set-up samples a run gets at least, from set-up-only repetitions where
# the full ones are fewer
SETUP_SAMPLES = 7


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Run:
    """One benchmark invocation: repetitions, checks, failures."""

    def __init__(self, workload, seed, seconds):
        self.seconds = seconds
        self.started = monotonic()
        self.failures = []
        self.attempted = 0
        self.failed = 0
        self.reference = json.loads(REFERENCE.read_text()).get(
            workload.name, {}).get(str(seed))
        self.results = OUT / "results"
        self.results.mkdir(parents=True, exist_ok=True)
        self.out = OUT / "work" / workload.name
        self.tag = f"{workload.name}-seed{seed}"
        self.spec = workload.input(seed)
        if workload.input(seed) != self.spec:
            self.fail("two inputs generated from one seed differ")
        if "document" in self.spec:
            path = self.results / f"{self.tag}.scenario.json"
            path.write_text(self.spec["document"])
            self.spec = {"document": str(path)}

    def elapsed(self):
        return monotonic() - self.started

    def fail(self, message):
        self.failures.append(message)
        print(f"FAIL {self.tag}: {message}", flush=True)

    def repetition(self, mode):
        """Run one child in mode full, traced or setup (see child.py).

        Returns its sample, or None if it failed. Untraced repetitions sit
        between two calibration kernel samples, which give the sample's
        machine-speed scale.
        """
        self.attempted += 1
        kernel_before = calibrate.sample() if mode != "traced" else None
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        spawned_at = monotonic()
        child_spec = {**self.spec, "root": str(ROOT), "out": str(self.out),
                      "spawned_at": spawned_at, "mode": mode}
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"),
                 json.dumps(child_spec)],
                cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, HARD_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            self.failed += 1
            self.fail(f"{mode} repetition timed out")
            return None
        if proc.returncode != 0:
            self.failed += 1
            self.fail(f"{mode} repetition exited {proc.returncode}:\n"
                      + proc.stderr.strip())
            return None
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if kernel_before is not None:
            kernels = [kernel_before, calibrate.sample()]
            sample["kernel_s"] = kernels
            sample["scale"] = (calibrate.REFERENCE_KERNEL_S
                               / statistics.fmean(kernels))
        if mode == "setup":
            return sample
        sample.update(artifact_digests(self.out))
        sample["output_s"] = (sample["wall_s"] - sample["build_s"]
                              - sample["simulate_s"])
        sample["frames_per_s"] = sample["frames"] / sample["wall_s"]
        return sample

    def check_digests(self, samples):
        """Fail repetitions that differ from the reference or each other."""
        if self.reference is not None:
            expected, where = self.reference, "the reference"
        else:
            digests = [s["digest"] for s in samples]
            expected = max(set(digests), key=digests.count)
            where = "the other repetitions"
        for s in samples:
            if s["digest"] != expected:
                self.failed += 1
                mode = "traced" if "trace" in s else "full"
                self.fail(f"{mode} repetition: artifacts differ from {where} "
                          f"(digest {s['digest'][:16]}, expected "
                          f"{expected[:16]})")


def artifact_digests(out):
    """SHA-256 of the deterministic artifacts, frame count and bytes written.

    summary.csv and report.txt are left out: their layout may grow.
    """
    files = {}
    frames = 0
    written = 0
    for path in sorted(out.rglob("*")):
        if not path.is_file():
            continue
        written += path.stat().st_size
        rel = path.relative_to(out).as_posix()
        if rel in ("summary.csv", "report.txt"):
            continue
        data = path.read_bytes()
        files[rel] = hashlib.sha256(data).hexdigest()
        if rel == "trace.txt":
            frames = data.count(b"\nr ") + data.startswith(b"r ")
    combined = hashlib.sha256(
        "".join(f"{rel}\0{h}\n" for rel, h in files.items()).encode()
    ).hexdigest()
    return {"digest": combined, "frames": frames, "bytes_written": written}


def tail(values, lower_is_better):
    """The worst-side percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return {}
    # nearest rank: ten samples lie beyond the value at index n-11
    ordered = sorted(values, reverse=not lower_is_better)
    pct = round(100 * (n - 10) / n)
    return {"tail": ordered[n - 11],
            "tail_pct": pct if lower_is_better else 100 - pct}


def end_to_end(samples, setups):
    """Median and tail of each metric over the run's repetitions.

    value and tail are over the samples scaled to the reference machine
    speed, host is the median as measured. setup_s includes set-up-only
    repetitions.
    """
    out = {}
    for name, unit, lower, power in END_TO_END:
        reps = setups if name == "setup_s" else samples
        host = [s[name] for s in reps]
        scaled = [s[name] * s["scale"] ** power for s in reps]
        out[name] = {"unit": unit, "lower_is_better": lower,
                     "value": statistics.median(scaled),
                     "host": statistics.median(host), "n": len(reps),
                     **tail(scaled, lower)}
    return out


def provenance(run, workload, seed):
    h = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.glob("*.py")):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_sha": git_sha(),
        "src_sha256": h.hexdigest(),
        "src_vanetsim_lines": lines,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "seconds": run.seconds,
        "repetitions": run.attempted,
    }


def git_sha():
    """HEAD commit read from .git in the checkout, or None without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(run):
    """Full repetitions while another fits in --seconds, at least one.

    Returns the full samples, and the set-up samples: the full ones plus
    any set-up-only ones.
    """
    samples = []
    while True:
        rep_start = run.elapsed()
        sample = run.repetition("full")
        if sample is not None:
            samples.append(sample)
        rep_s = run.elapsed() - rep_start
        if run.elapsed() + rep_s > min(run.seconds, HARD_LIMIT_S):
            break
    setups = list(samples)
    for _ in range(SETUP_SAMPLES - len(setups)):
        sample = run.repetition("setup")
        if sample is not None:
            setups.append(sample)
    return samples, setups


def measure_traced(run):
    """Untraced, then traced repetitions."""
    untraced, traced = [], []
    while len(untraced) < 2 or run.elapsed() < run.seconds * UNTRACED_SHARE:
        sample = run.repetition("full")
        if sample is None:
            break
        untraced.append(sample)
    rep_s = 0.0
    while not traced or run.elapsed() + rep_s <= run.seconds:
        rep_start = run.elapsed()
        sample = run.repetition("traced")
        if sample is None:
            break
        traced.append(sample)
        rep_s = run.elapsed() - rep_start
    return untraced, traced


def print_table(title, rows):
    print(title)
    for name, value, unit, extra in rows:
        print(f"  {name:<32} {value:>16.6g} {unit:<9} {extra}")


def report_end_to_end(run, record):
    """Measure untraced; returns the result line's metrics, or None."""
    samples, setups = measure(run)
    if not samples:
        return None
    run.check_digests(samples)
    scale = statistics.median(s["scale"] for s in samples)
    summary = end_to_end(samples, setups)
    rows = []
    for name, s in summary.items():
        tail_text = (f"p{s['tail_pct']}={s['tail']:.6g}" if "tail" in s
                     else "tail n/a (<11 samples)")
        better = "lower" if s["lower_is_better"] else "higher"
        rows.append((name, s["value"], s["unit"],
                     f"host={s['host']:.6g}  {tail_text}  n={s['n']}  "
                     f"{better} is better"))
    print_table(f"{run.tag}: {run.attempted} repetitions; median "
                f"machine-speed scale {scale:.4f}", rows)
    record["end_to_end"] = summary
    record["samples"] = samples
    record["setup_samples"] = setups[len(samples):]
    return {k: {"value": s["value"], "unit": s["unit"]}
            for k, s in summary.items()}


def report_per_layer(run, record):
    """Measure traced; returns the result line's metrics, or None."""
    import tracer
    untraced, traced = measure_traced(run)
    if not untraced or not traced:
        return None
    run.check_digests(untraced + traced)
    for s in traced:
        for problem in tracer.check(s["trace"]):
            run.failed += 1
            run.fail(f"traced repetition: {problem}")
    full = tracer.median_metrics([s["trace"] for s in traced])
    full["trace.overhead_ratio"] = (
        statistics.median(s["wall_s"] for s in traced)
        / statistics.median(s["wall_s"] for s in untraced), "ratio")
    full["scenario.bytes_written"] = (
        statistics.median(s["bytes_written"] for s in traced), "bytes")
    print_table(f"{run.tag} traced: {len(traced)} traced, "
                f"{len(untraced)} untraced repetitions",
                [(k, v, u, "") for k, (v, u) in full.items()])
    record["per_layer"] = {k: {"value": v, "unit": u}
                           for k, (v, u) in full.items()}
    record["samples"] = {"untraced": untraced, "traced": traced}
    return {k: record["per_layer"][k] for k in PER_LAYER_RESULT}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"error: no vanetsim package at {SRC}; run from the root of "
              "a vanetsim checkout", file=sys.stderr)
        return 2

    run = Run(WORKLOADS[args.workload], args.seed, args.seconds)
    record = {}
    report = report_per_layer if args.trace else report_end_to_end
    metrics = report(run, record)
    if metrics is None:
        print(f"error: {run.tag}: no repetition completed", file=sys.stderr)
        return 1

    failed_share = run.failed / run.attempted
    print(f"  {'failed_runs':<32} {failed_share:>16.6g} share     "
          f"{run.failed} of {run.attempted} attempted")
    record["provenance"] = provenance(run, args.workload, args.seed)
    record["failures"] = run.failures
    record["failed_runs"] = failed_share
    print("provenance: " + json.dumps(record["provenance"]))
    path = run.results / f"{run.tag}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
