"""The three workloads, each a single caller in a closed loop.

A closed loop starts the next operation only when the previous one has
returned and been checked, so the machine's 2 cores hold one busy process
(in-process workloads) or one parent waiting on one child (cli-oneshot).
Timing covers the calls into the library and their checks; generating the
next input is outside the clock.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import inputs
from gauge import Gauge, python_gauge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("engine-roundtrip", "two-bridge-catalog", "cli-oneshot")

# The warm-up call each workload makes once before timing; the set-up
# probe makes the same call in a fresh interpreter.
_WARM_UP = {
    "engine-roundtrip": (
        "se = tunnel_slopes.slope_engine\n"
        "se.upper_slopes(se.braid_from_slopes(se.parse_slopes('21 25 341 60 -13 1 -13 1')))\n"
    ),
    "two-bridge-catalog": "tunnel_slopes.knot_families.two_bridge_tunnels(413, 227)\n",
    "cli-oneshot": (
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    tunnel_slopes.cli.main(['upperSlopes', 'm', '3', 's', '-2', 'l', '3'])\n"
    ),
}


@dataclass(frozen=True)
class Sizes:
    """How much each part of a run does; ``tiny`` is for the smoke check."""

    setup_launches: int = 15
    catalog_a: tuple[int, ...] = inputs.CATALOG_A
    # traced run
    engine_section_cycles: int = 2
    catalog_section_ops: int = 400
    probe_launches: int = 9
    growth_d: tuple[int, ...] = (16, 32, 64)
    growth_k: tuple[int, ...] = (200, 400, 800)
    growth_a: tuple[int, ...] = (501, 1001, 2001)
    growth_closed_a: tuple[int, ...] = (4001, 16001, 64001)
    growth_repeats: int = 3

    @classmethod
    def tiny(cls) -> "Sizes":
        return cls(
            setup_launches=1,
            catalog_a=(15, 21),
            engine_section_cycles=1,
            catalog_section_ops=10,
            probe_launches=1,
            growth_d=(2, 4),
            growth_k=(4, 8),
            growth_a=(15, 31),
            growth_closed_a=(15, 31),
            growth_repeats=1,
        )


# Other tenants of a shared machine slow it by up to half for seconds at a
# time and drift its speed over minutes.  Every timing is scaled by a speed
# gauge (gauge.py) sampled around it, and throughput is the median over
# slices of the run of one to two seconds, which a minority of slow seconds
# does not move.  Latency percentiles are over the whole run, so that even
# the shortest run (cli-oneshot, about 250 calls) holds ten samples beyond
# p90.
SLICES = 20


@dataclass
class Outcome:
    """What a timed loop did, one entry per attempted operation.

    Times are recorded as measured; ``scale`` turns them into times at the
    gauge's nominal speed once the run is over, when the gauge samples on
    both sides of every operation are in.
    """

    gauge: Gauge
    # Operation time between two gauge samples: a few percent of the run.
    gauge_every_s: float
    latencies_ms: list[float] = field(default_factory=list)
    loop_s: list[float] = field(default_factory=list)
    gauge_at: list[int] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    timed_s: float = 0.0
    since_gauge_s: float = 0.0
    errors: list[str] = field(default_factory=list)
    properties: dict = field(default_factory=dict)
    cuts: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.gauge.sample()

    def record(self, latency_ns: int, error, loop_ns=None) -> None:
        """One operation: its latency, and the loop time it took if longer.

        Samples the gauge, outside the loop clock, once gauge_every_s of
        operation time has passed since the last sample.
        """
        loop_s = (latency_ns if loop_ns is None else loop_ns) / 1e9
        self.latencies_ms.append(latency_ns / 1e6)
        self.loop_s.append(loop_s)
        self.gauge_at.append(len(self.gauge.samples))
        self.timed_s += loop_s
        self.ok.append(error is None)
        if error is not None and len(self.errors) < 5:
            self.errors.append(str(error))
        self.since_gauge_s += loop_s
        if self.since_gauge_s >= self.gauge_every_s:
            self.gauge.sample()
            self.since_gauge_s = 0.0

    def scale(self) -> None:
        """Scale every recorded time by the gauge around its operation."""
        self.gauge.sample()
        scales = [self.gauge.scale(at) for at in self.gauge_at]
        self.latencies_ms = [t * k for t, k in zip(self.latencies_ms, scales)]
        self.loop_s = [t * k for t, k in zip(self.loop_s, scales)]

    def slices(self) -> list[slice]:
        """The slices that ``cuts`` starts, else SLICES of equal size."""
        n = len(self.ok)
        cuts = self.cuts or [n * i // SLICES for i in range(SLICES)]
        cuts = cuts + [n]
        return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]

    def ops_per_s(self) -> float:
        """Verified operations per second of the timed loop, median over slices."""
        return statistics.median(sum(self.ok[s]) / sum(self.loop_s[s]) for s in self.slices())

    def p50_ms(self) -> float:
        return percentile(self.latencies_ms, 50)

    def p90_ms(self) -> float:
        """90th percentile latency over the whole run, 10% of it beyond."""
        return percentile(self.latencies_ms, 90)


CHILD_TIMEOUT_S = 60


def child_env(extra_path=None) -> dict:
    """Environment for every child interpreter: the checkout's src, no .pyc writes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) if extra_path is None else f"{SRC}{os.pathsep}{extra_path}"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


@contextmanager
def watchdog(child: subprocess.Popen):
    """Kill a child that outlives CHILD_TIMEOUT_S.

    Waiting with ``timeout=`` would poll the child in sleeps of up to 50 ms,
    which quantizes a 100 ms measurement; a timer thread leaves the wait
    itself exact.
    """
    timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    timer.start()
    try:
        yield
    finally:
        timer.cancel()


def spawn(argv, extra_path=None, **kwargs) -> subprocess.Popen:
    return subprocess.Popen(argv, cwd=ROOT, env=child_env(extra_path), text=True, **kwargs)


def run_child(argv, extra_path=None) -> tuple[int, str, str]:
    """Run an interpreter to completion; return (exit code, stdout, stderr)."""
    with spawn(argv, extra_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child, watchdog(child):
        out, err = child.communicate()
    return child.returncode, out, err


def bare_launch() -> None:
    """Start an interpreter that does nothing, and wait for it to exit."""
    with spawn([sys.executable, "-c", "pass"]) as child, watchdog(child):
        child.wait()
    if child.returncode != 0:
        raise RuntimeError(f"bare interpreter exited {child.returncode}")


def launch_gauge(window: int) -> Gauge:
    """A gauge for work done by fresh interpreters: starting a bare one."""
    return Gauge(bare_launch, nominal_s=0.075, window=window)


class SetupProbes:
    """Seconds from launching an interpreter until import and warm-up are done.

    The child reports readiness on stdout after its warm-up call; the clock
    stops when the parent reads that line, before the child's teardown.
    Launches are spread evenly over the timed loop (outside its clock), so
    their median samples the machine at several moments of the run rather
    than during one second of it.  Each launch sits between two bare
    interpreter starts and is scaled by their mean: launches back to back
    share the machine's state, and the median over launches removes the
    jitter a single pair adds.
    """

    def __init__(self, workload: str, launches: int, seconds: float) -> None:
        self.workload = workload
        self.code = (
            "import tunnel_slopes, tunnel_slopes.cli\n" + _WARM_UP[workload] + "print('ready', flush=True)\n"
        )
        self.launches = launches
        self.every = seconds / launches
        self.gauge = launch_gauge(window=2)
        self.times: list[float] = []
        self.scaled: list[float] = []

    def due(self, timed_s: float) -> None:
        """Launch the probes whose moment in the timed loop has come."""
        while len(self.times) < self.launches and timed_s >= len(self.times) * self.every:
            self.gauge.sample()
            self.times.append(self.launch())
            self.gauge.sample()
            self.scaled.append(self.times[-1] * self.gauge.scale(len(self.gauge.samples) - 1))

    def finish(self) -> list[float]:
        """Launch any probes still due; return every launch, scaled."""
        self.due(float("inf"))
        return self.scaled

    def launch(self) -> float:
        start = time.perf_counter()
        with spawn([sys.executable, "-c", self.code], stdout=subprocess.PIPE) as child, watchdog(child):
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
        if child.returncode != 0 or line != "ready\n":
            raise RuntimeError(f"set-up probe for {self.workload} failed: exit {child.returncode}")
        return elapsed


def warm_up(workload: str, lib) -> None:
    exec(_WARM_UP[workload], {"tunnel_slopes": lib})


# ---------------------------------------------------------------------------
# operations: each returns None when the result checks out, else the reason


def engine_op(lib, seq, lower_depths: list):
    """Both directions, plus the dual involution on the lower sequence."""
    se = lib.slope_engine
    w = se.braid_from_slopes(seq)
    if se.upper_slopes(w) != seq:
        return "upper_slopes(braid_from_slopes(S)) != S"
    lower = se.lower_slopes(w)
    lower_depths.append(len(lower.rest))
    if se.lower_slopes(se.braid_from_slopes(lower)) != seq:
        return "dual involution failed"
    return None


def to_sequence(lib, first, rest):
    return lib.SlopeSequence(lib.SimpleSlope(*first), rest)


def catalog_check(lib, a: int, b: int, report):
    """Three independent checks of one two_bridge_tunnels(a, b) report."""
    kf = lib.knot_families
    dual = pow(b, -1, a)
    if report.upper_simple != lib.SlopeSequence(lib.SimpleSlope(dual, a)):
        return "upper simple tunnel"
    if report.lower_simple != lib.SlopeSequence(lib.SimpleSlope(b, a)):
        return "lower simple tunnel"
    if report.upper_semisimple != kf.semisimple_slopes_closed_form(a, b):
        return "upper semisimple != closed form for (a, b)"
    if report.lower_semisimple != kf.semisimple_slopes_closed_form(a, dual):
        return "lower semisimple != closed form for (a, b')"
    knot, other = lib.TwoBridge(a, b), lib.TwoBridge(a, dual)
    if kf.find_two_bridge(report.upper_semisimple) != (knot, other):
        return "find_two_bridge did not recover K(a, b)"
    if kf.find_two_bridge(report.lower_semisimple) != (other, knot):
        return "find_two_bridge did not recover K(a, b')"
    return None


def run_cli(argv) -> tuple[int, str, str]:
    return run_child([sys.executable, "-m", "tunnel_slopes", *argv])


def _attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # an unexpected raise is a failed operation
        return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# timed loops


def loop_engine(lib, seed: int, seconds: float, probes: SetupProbes, out: Outcome) -> None:
    lower_depths = []
    clock = time.perf_counter_ns
    for depth, (first, rest) in inputs.engine_stream(seed):
        # Whole cycles of depths, so every run measures the same mix.
        if out.timed_s >= seconds and len(out.ok) % len(inputs.ENGINE_DEPTHS) == 0:
            break
        probes.due(out.timed_s)
        seq = to_sequence(lib, first, rest)
        start = clock()
        error = _attempt(engine_op, lib, seq, lower_depths)
        out.record(clock() - start, error)
    out.properties = {
        "depths": f"{inputs.ENGINE_DEPTHS[0]}..{inputs.ENGINE_DEPTHS[-1]}, each once per cycle",
        "entry_bound": inputs.ENTRY_BOUND,
        "lower_depth_p50": statistics.median(lower_depths),
        "repeated_inputs": 0,
    }


def loop_catalog(lib, seed: int, seconds: float, probes: SetupProbes, out: Outcome, sizes: Sizes) -> None:
    """Whole passes over the tables, so every run measures the same mix.

    An operation's latency is its two_bridge_tunnels call; the loop clock
    also counts the checks.  The slices are the blocks of each pass, which
    hold the same mix of queries.
    """
    pairs = inputs.catalog_pairs(sizes.catalog_a)
    out.properties = inputs.catalog_properties(pairs, lib.upper_semisimple_word)
    rng = inputs.rng_for(seed, "catalog")
    clock = time.perf_counter_ns
    tunnels = lib.knot_families.two_bridge_tunnels
    while out.timed_s < seconds:
        for block in inputs.catalog_pass(rng, pairs):
            out.cuts.append(len(out.ok))
            for a, b in block:
                probes.due(out.timed_s)
                start = clock()
                try:
                    report = tunnels(a, b)
                    latency = clock() - start
                    error = catalog_check(lib, a, b, report)
                except Exception as exc:
                    latency = clock() - start
                    error = f"{type(exc).__name__}: {exc}"
                out.record(latency, None if error is None else f"K({a}, {b}): {error}", clock() - start)


def loop_cli(lib, seed: int, seconds: float, probes: SetupProbes, out: Outcome) -> None:
    cases = inputs.cli_cases(seed, lib)
    clock = time.perf_counter_ns
    i = 0
    # Whole passes over the deck, so every run measures the same mix.
    while out.timed_s < seconds or i % len(cases):
        probes.due(out.timed_s)
        case = cases[i % len(cases)]
        i += 1
        start = clock()
        try:
            code, stdout, stderr = run_cli(case.argv)
            error = inputs.check_cli_result(case, code, stdout, stderr)
        except OSError as exc:
            error = f"{type(exc).__name__}: {exc}"
        out.record(clock() - start, None if error is None else f"{' '.join(case.argv)}: {error}")
    kinds = {}
    for case in cases:
        kinds[case.kind] = kinds.get(case.kind, 0) + 1
    out.properties = {
        "cases": kinds,
        "subcommands": len({c.argv[0] for c in cases if c.code == 0}),
        "json_cases": sum("--json" in c.argv for c in cases),
    }


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-oneshot" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[p - 1]


def run(workload: str, lib, seed: int, seconds: float, sizes: Sizes) -> dict:
    """The untraced run: warm-up, then the timed loop with set-up probes."""
    probes = SetupProbes(workload, sizes.setup_launches, seconds)
    warm_up(workload, lib)
    if workload == "engine-roundtrip":
        out = Outcome(python_gauge(), gauge_every_s=0.02)
        loop_engine(lib, seed, seconds, probes, out)
    elif workload == "two-bridge-catalog":
        out = Outcome(python_gauge(), gauge_every_s=0.02)
        loop_catalog(lib, seed, seconds, probes, out, sizes)
    else:
        # A bare start every third CLI call or so; 21 span about 6 s.
        out = Outcome(launch_gauge(window=21), gauge_every_s=0.3)
        loop_cli(lib, seed, seconds, probes, out)
    setups = probes.finish()
    unscaled = {"ops_per_s": out.ops_per_s(), "op_p50_ms": out.p50_ms(), "op_p90_ms": out.p90_ms()}
    out.scale()
    attempted = len(out.ok)
    failed = attempted - sum(out.ok)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (out.ops_per_s(), "1/s"),
        "op_p50_ms": (out.p50_ms(), "ms"),
        "op_p90_ms": (out.p90_ms(), "ms"),
        "failed_ratio": (failed / attempted, "1"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": out.errors,
        "metrics": metrics,
        "notes": {
            "timed_s": out.timed_s,
            "slices": len(out.slices()),
            "setup_launches": len(setups),
            "latency_samples": attempted,
            "gauge_samples": len(out.gauge.samples),
            "gauge_median_ms": statistics.median(out.gauge.samples) * 1e3,
            "setup_gauge_median_ms": statistics.median(probes.gauge.samples) * 1e3,
            "unscaled_setup_s": statistics.median(probes.times),
            "unscaled": unscaled,
            "inputs": out.properties,
        },
    }
