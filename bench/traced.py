"""The traced run: per-layer spans and counts, growth ladders, trace overhead.

Each layer metric is read from the section whose workload it feeds:

- engine section (engine-roundtrip inputs): ``slope_engine.*``, ``braid.*``;
- catalog section (two-bridge-catalog inputs): ``exact_arith.*``,
  ``knot_families.*``;
- CLI section (cli-oneshot deck, ``cli.main`` called in process) and
  interpreter probes: ``cli.*``.

Sections run a fixed, seeded set of operations, so their counts repeat
exactly for a seed.  The growth ladders time public calls without wrappers.
The rest of the run's time alternates untraced and traced passes over the
named workload's section inputs to give ``trace.overhead_ratio``.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import sys
import time
from pathlib import Path

import inputs
import workloads
from tracer import Tracer, ms, write_spans

OUT_DIR = workloads.ROOT / ".bench_out"
BENCH_DIR = Path(__file__).resolve().parent
CHILD_SPANS = OUT_DIR / "cli-child-spans.jsonl"


class Tally:
    """Operations attempted and failed across the whole traced run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, error, label: str = "") -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{label}{error}")


# ---------------------------------------------------------------------------
# passes over section inputs; ``tracer`` None runs them untraced


def _op_span(tracer):
    return contextlib.nullcontext() if tracer is None else tracer.span("bench.op")


def engine_pass(lib, deck, tally: Tally, tracer=None) -> None:
    depths: list = []
    for seq in deck:
        with _op_span(tracer):
            error = workloads._attempt(workloads.engine_op, lib, seq, depths)
        tally.add(error)


def catalog_pass(lib, pairs, tally: Tally, tracer=None) -> None:
    for a, b in pairs:
        with _op_span(tracer):
            try:
                error = workloads.catalog_check(lib, a, b, lib.knot_families.two_bridge_tunnels(a, b))
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        tally.add(error, f"K({a}, {b}): ")


def cli_in_process(lib, cases, tally: Tally, tracer=None) -> None:
    for case in cases:
        out, err = io.StringIO(), io.StringIO()
        with _op_span(tracer), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = lib.cli.main(list(case.argv))
            except SystemExit as exc:  # argparse rejects bad usage this way
                code = exc.code
        tally.add(inputs.check_cli_result(case, code, out.getvalue(), err.getvalue()), " ".join(case.argv) + ": ")


def cli_subprocesses(cases, tally: Tally, traced: bool) -> None:
    for case in cases:
        # Both sides start through -m, so they differ only by the tracer.
        if traced:
            result = workloads.run_child(
                [sys.executable, "-m", "cli_traced", str(CHILD_SPANS), *case.argv], extra_path=BENCH_DIR
            )
        else:
            result = workloads.run_cli(case.argv)
        tally.add(inputs.check_cli_result(case, *result), " ".join(case.argv) + ": ")


# ---------------------------------------------------------------------------
# probes and ladders


def _launch_ms(code: str) -> float:
    start = time.perf_counter()
    with workloads.spawn([sys.executable, "-c", code]) as child, workloads.watchdog(child):
        child.wait()
    if child.returncode != 0:
        raise RuntimeError(f"probe {code!r} exited {child.returncode}")
    return (time.perf_counter() - start) * 1000


def interpreter_probes(launches: int) -> tuple[float, float]:
    """Median bare start, and median import cost over back-to-back pairs.

    Pairing each import with a bare start just before it cancels the
    machine's slow seconds, which last longer than one pair.
    """
    bare, extra = [], []
    for _ in range(launches):
        start_ms = _launch_ms("pass")
        bare.append(start_ms)
        extra.append(_launch_ms("import tunnel_slopes.cli") - start_ms)
    return statistics.median(bare), statistics.median(extra)


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        fn()
        times.append((time.perf_counter_ns() - start) / 1e6)
    return statistics.median(times)


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x): the growth exponent."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def growth(lib, seed: int, sizes: workloads.Sizes) -> dict:
    se, kf = lib.slope_engine, lib.knot_families
    # Each repeat draws one sequence of the largest depth and times its
    # prefixes, so the rungs differ in depth rather than in their entries.
    longest = [
        inputs.slope_sequence(inputs.rng_for(seed, f"growth-d-{r}"), max(sizes.growth_d))
        for r in range(sizes.growth_repeats)
    ]
    rows = {"braid_from_slopes": [], "upper_slopes": [], "lower_slopes": []}
    for d in sizes.growth_d:
        per = {name: [] for name in rows}
        for first, rest in longest:
            seq = workloads.to_sequence(lib, first, rest[:d])
            w = se.braid_from_slopes(seq)
            repeats = sizes.growth_repeats
            per["braid_from_slopes"].append(_median_ms(lambda: se.braid_from_slopes(seq), repeats))
            per["upper_slopes"].append(_median_ms(lambda: se.upper_slopes(w), repeats))
            per["lower_slopes"].append(_median_ms(lambda: se.lower_slopes(w), repeats))
        for name in rows:
            rows[name].append(statistics.median(per[name]))
    k_ms = [
        _median_ms(lambda: se.upper_slopes(lib.parse_word(f"m -{k} s 3 l 1 m 2 s -1 l 1")), sizes.growth_repeats)
        for k in sizes.growth_k
    ]
    a_ms = [_median_ms(lambda: kf.two_bridge_tunnels(a, 2), sizes.growth_repeats) for a in sizes.growth_a]
    closed_ms = [
        _median_ms(lambda: kf.semisimple_slopes_closed_form(a, 2), sizes.growth_repeats)
        for a in sizes.growth_closed_a
    ]
    d = sizes.growth_d
    return {
        "growth.lower_slopes.d": loglog_slope(d, rows["lower_slopes"]),
        "growth.upper_slopes.d": loglog_slope(d, rows["upper_slopes"]),
        "growth.braid_from_slopes.d": loglog_slope(d, rows["braid_from_slopes"]),
        "growth.upper_slopes.k": loglog_slope(sizes.growth_k, k_ms),
        "growth.two_bridge_tunnels.a": loglog_slope(sizes.growth_a, a_ms),
        "growth.semisimple_closed_form.a": loglog_slope(sizes.growth_closed_a, closed_ms),
    }


# ---------------------------------------------------------------------------


def run(workload: str, lib, seed: int, seconds: float, sizes: workloads.Sizes) -> dict:
    began = time.perf_counter()
    tally = Tally()
    OUT_DIR.mkdir(exist_ok=True)
    CHILD_SPANS.write_text("")

    stream = inputs.engine_stream(seed)
    engine_deck = [
        workloads.to_sequence(lib, *next(stream)[1])
        for _ in range(sizes.engine_section_cycles * len(inputs.ENGINE_DEPTHS))
    ]
    blocks = inputs.catalog_pass(inputs.rng_for(seed, "catalog"), inputs.catalog_pairs(sizes.catalog_a))
    catalog_deck = [pair for block in blocks for pair in block][: sizes.catalog_section_ops]
    cases = inputs.cli_cases(seed, lib)

    for name in workloads.WORKLOADS:
        workloads.warm_up(name, lib)
    sections = {name: Tracer() for name in workloads.WORKLOADS}
    with sections["engine-roundtrip"].installed() as tracer:
        engine_pass(lib, engine_deck, tally, tracer)
    with sections["two-bridge-catalog"].installed() as tracer:
        catalog_pass(lib, catalog_deck, tally, tracer)
    with sections["cli-oneshot"].installed() as tracer:
        cli_in_process(lib, cases, tally, tracer)

    interp_ms, import_ms = interpreter_probes(sizes.probe_launches)
    metrics = growth(lib, seed, sizes)

    if workload == "cli-oneshot":
        one_each = list({case.argv[0]: case for case in cases if case.code == 0}.values())
        untraced_pass = lambda: cli_subprocesses(one_each, tally, traced=False)
        traced_pass = lambda: cli_subprocesses(one_each, tally, traced=True)
    else:
        section_pass = {
            "engine-roundtrip": lambda tracer: engine_pass(lib, engine_deck, tally, tracer),
            "two-bridge-catalog": lambda tracer: catalog_pass(lib, catalog_deck, tally, tracer),
        }[workload]
        untraced_pass = lambda: section_pass(None)

        def traced_pass():
            with Tracer().installed() as tracer:
                section_pass(tracer)

    # Alternate untraced and traced passes over the same inputs until the
    # run's time is used, at least once each.
    untraced_s = traced_s = 0.0
    while traced_s == 0.0 or time.perf_counter() - began < seconds:
        start = time.perf_counter()
        untraced_pass()
        middle = time.perf_counter()
        traced_pass()
        untraced_s += middle - start
        traced_s += time.perf_counter() - middle

    eng_total, eng_self = sections["engine-roundtrip"].totals()
    eng = sections["engine-roundtrip"].counts
    cat_total, cat_self = sections["two-bridge-catalog"].totals()
    cat = sections["two-bridge-catalog"].counts
    _, cli_self = sections["cli-oneshot"].totals()
    metrics.update(
        {
            "cli.interp_start_ms": interp_ms,
            "cli.import_ms": import_ms,
            "cli.main.self_ms": ms(cli_self["cli.main"]),
            "slope_engine.upper_slopes.self_ms": ms(eng_self["slope_engine.upper_slopes"]),
            "slope_engine.lower_slopes.ms": ms(eng_total["slope_engine.lower_slopes"]),
            "slope_engine.braid_from_slopes.self_ms": ms(eng_self["slope_engine.braid_from_slopes"]),
            "slope_engine.peephole.ms": ms(eng_total["slope_engine.peephole"]),
            "slope_engine.peephole.letters_in": eng["slope_engine.peephole.letters_in"],
            "slope_engine.peephole.letters_out": eng["slope_engine.peephole.letters_out"],
            "slope_engine.reduction_yield": eng["slope_engine.upper_slopes.slopes"]
            / eng["braid.subgroup_slope.calls"],
            "braid.word.calls": eng["braid.word.calls"],
            "braid.word.letters_in": eng["braid.word.letters_in"],
            "braid.word.ms": ms(eng_total["braid.word"]),
            "braid.winding_number.calls": eng["braid.winding_number.calls"],
            "braid.winding_number.letters": eng["braid.winding_number.letters"],
            "braid.subgroup_slope.calls": eng["braid.subgroup_slope.calls"],
            "braid.segment.segments": eng["braid.segment.segments"],
            "exact_arith.expand_odd_numerator.ms": ms(cat_total["exact_arith.expand_odd_numerator"]),
            "exact_arith.expand_all_even.ms": ms(cat_total["exact_arith.expand_all_even"]),
            "exact_arith.cf_eval.ms": ms(cat_total["exact_arith.cf_eval"]),
            "knot_families.two_bridge_tunnels.self_ms": ms(cat_self["knot_families.two_bridge_tunnels"]),
            "knot_families.semisimple_slopes_closed_form.ms": ms(
                cat_total["knot_families.semisimple_slopes_closed_form"]
            ),
            "knot_families.find_two_bridge.ms": ms(cat_total["knot_families.find_two_bridge"]),
            "knot_families.upper_semisimple_word.letters": cat["knot_families.upper_semisimple_word.letters"],
            "trace.overhead_ratio": untraced_s / traced_s,
        }
    )
    spans_file = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl.gz"
    span_count = write_spans(spans_file, sections)
    child_runs = len(CHILD_SPANS.read_text().splitlines())
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "metrics": {name: (value, unit_of(name)) for name, value in metrics.items()},
        "notes": {
            "section_ops": {
                "engine-roundtrip": len(engine_deck),
                "two-bridge-catalog": len(catalog_deck),
                "cli-oneshot": len(cases),
            },
            "spans_written": span_count,
            "spans_file": str(spans_file.relative_to(workloads.ROOT)),
            "traced_cli_children": child_runs,
            "overhead_passes_s": {"untraced": untraced_s, "traced": traced_s},
        },
    }


def unit_of(name: str) -> str:
    if name.startswith("growth."):
        return "log/log"
    if name.endswith("ms"):
        return "ms"
    if name in ("slope_engine.reduction_yield", "trace.overhead_ratio"):
        return "ratio"
    return "count"
