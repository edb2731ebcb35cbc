"""One pass of one workload, in a process of its own.

    python3 bench/child.py WORKLOAD cold|warm SEED WORKDIR [--traced]

``bench/run.py`` starts one of these per pass. It builds the inputs,
runs the pass, digests the outputs and prints one JSON line.

Timings are normalized for host speed. On a shared 2-vCPU host the
speed of one process drifts by up to 1.8x over minutes, so raw seconds
from two runs of the same code cannot be compared. An untraced child therefore times a fixed interpreter loop (the *probe*)
every 0.1 s on a timer signal, while the workload runs, and reports
each region's probe-free seconds scaled to a reference host on which
the probe takes 1 ms: ``seconds * PROBE_REFERENCE_S / mean(probe)``.
The raw probe-free seconds are reported beside them. Traced children
do not probe, so span times are plain host seconds.
"""

import time

T0 = time.perf_counter()  # set-up time is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE_ITERATIONS = 30_000
PROBE_INTERVAL_S = 0.1
#: The reference host runs the probe loop in exactly this long.
PROBE_REFERENCE_S = 1e-3


def probe() -> float:
    """Seconds this process takes for a fixed interpreter loop."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i
    return time.perf_counter() - start


class SpeedSampler:
    """Probes this process's speed every ``PROBE_INTERVAL_S`` while on.

    The timer signal interrupts the workload between bytecodes. Regions
    timed with :meth:`clock` exclude the probes' own time.
    """

    def __init__(self) -> None:
        self.probes: List[float] = []
        self._probing_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        duration = probe()
        self.probes.append(duration)
        self._probing_s += duration

    def start(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def clock(self) -> float:
        """``perf_counter`` minus the time spent probing so far."""
        return time.perf_counter() - self._probing_s

    def normalize(self, seconds: float, first: int, stop=None) -> float:
        """``seconds`` at reference speed, judged by the probes numbered
        ``first`` up to ``stop`` (or one fresh probe if there are none)."""
        samples = self.probes[first:stop] or [probe()]
        return seconds * PROBE_REFERENCE_S / statistics.mean(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload")
    parser.add_argument("pass_name", choices=("cold", "warm"))
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    sampler = None if args.traced else SpeedSampler().start()
    clock = time.perf_counter if sampler is None else sampler.clock
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, Path(args.workdir))
    raw_setup_s = clock() - T0
    setup_probes = 0 if sampler is None else len(sampler.probes)
    tracer = tracing.Tracer().install() if args.traced else None
    try:
        outcome = workload.run_pass(inputs, args.pass_name, tracer, clock)
    finally:
        if tracer is not None:
            tracer.restore()
    setup_s, seconds = raw_setup_s, outcome.seconds
    if sampler is not None:
        sampler.stop()
        setup_s = sampler.normalize(raw_setup_s, 0, setup_probes)
        seconds = sampler.normalize(outcome.seconds, setup_probes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    parts = workload.digest(outcome)
    report = {
        "pass": args.pass_name,
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "seconds": seconds,
        "raw_seconds": outcome.seconds,
        "probes": 0 if sampler is None else len(sampler.probes),
        "rss_mb": rss_mb,
        "ops": outcome.ops,
        "parts": parts,
        "digest": workloads.workload_digest(parts),
        "part_seconds": outcome.part_seconds,
        "extras": outcome.extras,
    }
    if tracer is not None:
        report["spans"] = tracing.spans_to_json(tracer.spans)
        report["counters"] = tracer.counters
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
