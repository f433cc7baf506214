"""twistlab benchmark: one workload, one seed, one fresh interpreter.

    python3 perfbench/run.py --workload {query,pd} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Load is one closed-loop client in one process: each operation
starts when the previous one has returned, as for a CLI user waiting on
an answer.  Results are checked outside the timed region against
``reference.json`` and the closed-form twist triple.

A workload is a fixed list of ops run as whole rounds, every op once per
round, until ``--seconds`` of op time have passed.  ``items_per_s`` is
ops per second of timed wall time; ``op_p50_ms`` and ``op_tail_ms`` are
taken over every timed call.

The workloads time cold calls: each starts from an empty memo.  Every
set-up sample's fresh interpreter also times one op, once; when those
cold calls are on median more than COLD_LIMIT times slower than the
same ops' median call in the run, state kept between calls is answering
the repeats, and every call of the run is counted as failed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` the run alternates untraced rounds with rounds run
under span wrappers at the module boundaries, so host drift hits both
alike; the last line reports per-layer metrics, and the spans are saved
under ``.perfbench_out/``.  A line before the last gives details (tail
percentile, sample counts, repeats, cold-call ratio, first errors).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time

import layers
import reference
import spans

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
TAIL_BEYOND = 10  # the tail percentile leaves this many samples above it
COLD_LIMIT = 3.0  # fresh-interpreter call over the op's median call, median over probes


def _clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _parse(argv):
    ap = argparse.ArgumentParser(description="twistlab benchmark")
    ap.add_argument("--workload", required=True, choices=("query", "pd"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    ap.add_argument("--probe", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _setup_sample(args, probe: int) -> tuple[float, float]:
    """Seconds from spawning an interpreter to its inputs being written,
    and seconds of that interpreter's one call of op ``probe``."""
    d = WORK / f"{os.getpid()}-setup"
    d.mkdir(parents=True)
    try:
        t0 = _clock()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--setup-only", str(d), "--probe", str(probe)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()[-500:]}")
        written, cold = map(float, proc.stdout.split()[-2:])
        return written - t0, cold
    finally:
        shutil.rmtree(d, ignore_errors=True)


def _tail(lat):
    """The highest percentile with TAIL_BEYOND samples above it.

    Returns (value, percentile, samples above); with too few samples
    for that, the maximum.
    """
    s = sorted(lat)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


class Phase:
    """Closed-loop timing of whole rounds until ``seconds`` of op time pass.

    Outputs are checked after each round and then dropped, so memory does
    not grow with the number of ops a run gets through.
    """

    def __init__(self, wl, ref, tracer=None):
        self.wl, self.ref, self.tracer = wl, ref, tracer
        self.lat: dict = {}  # spec -> latency of every call, in call order
        self.failures: list[tuple[object, str]] = []
        self.ops = 0
        self.op_time = 0.0
        self.nonzero_exits = 0
        self.wall = 0.0
        self.rounds = 0

    def run(self, seconds: float) -> "Phase":
        while self.wall < seconds:
            self.run_round()
        return self

    def run_round(self) -> None:
        wl, tracer = self.wl, self.tracer
        specs = wl.rounds[self.rounds % len(wl.rounds)]
        self.rounds += 1
        results = []
        t_round = time.perf_counter()
        for spec in specs:
            if tracer is not None:
                tracer.op = 1 + self.ops + len(results)
            ctx = tracer.span("bench.op") if tracer is not None else contextlib.nullcontext()
            t0 = time.perf_counter()
            with ctx:
                try:
                    out, err = wl.op(spec), None
                except Exception as exc:  # an op that raises is a failed op
                    out, err = None, f"{spec}: raised {exc!r}"
            results.append((time.perf_counter() - t0, out, err))
        self.wall += time.perf_counter() - t_round
        if tracer is not None:
            tracer.op = spans.OP_NONE
        for spec, (dt, out, err) in zip(specs, results):
            if err is None:
                try:
                    err = wl.check(spec, out, self.ref)
                except (ValueError, KeyError, TypeError) as exc:
                    err = f"{spec}: unreadable output {exc!r}"
            if err is not None:
                self.failures.append((spec, err))
            if out is not None and out[0] != 0:
                self.nonzero_exits += 1
            self.lat.setdefault(spec, []).append(dt)
            self.ops += 1
            self.op_time += dt

    def check_end(self) -> None:
        """Checks made once per distinct op; a failure counts for every call."""
        for spec, err in self.wl.check_end(list(self.lat), self.ref).items():
            self.failures.extend([(spec, err)] * len(self.lat[spec]))

    def check_cold(self, cold: dict) -> float:
        """Fail every call when repeats beat fresh-interpreter calls by COLD_LIMIT.

        ``cold`` maps a spec to its one call's seconds in a fresh
        interpreter; returns the median ratio of that to the op's median
        call in this phase.
        """
        ratio = statistics.median(t / statistics.median(self.lat[spec])
                                  for spec, t in cold.items())
        if ratio > COLD_LIMIT:
            err = (f"fresh-interpreter calls {ratio:.1f}x slower than repeats "
                   f"(limit {COLD_LIMIT}): state kept between calls answers them")
            self.failures.extend((spec, err) for spec, v in self.lat.items() for _ in v)
        return ratio

    @property
    def items_per_s(self) -> float:
        """Ops per second of timed wall time."""
        return self.ops / self.wall


def _setup_only(args) -> int:
    import workloads

    wl = workloads.make(args.workload, args.seed, args.setup_only)
    written = _clock()
    t0 = time.perf_counter()
    wl.op(wl.specs[args.probe])
    print(repr(written), repr(time.perf_counter() - t0))
    return 0


def _end_to_end(args, wl, ref, detail) -> tuple[dict, Phase]:
    probes = [j * len(wl.specs) // SETUP_SAMPLES for j in range(SETUP_SAMPLES)]
    samples, cold = zip(*(_setup_sample(args, k) for k in probes))
    ph = Phase(wl, ref).run(args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ph.check_end()
    cold_ratio = ph.check_cold({wl.specs[k]: t for k, t in zip(probes, cold)})
    calls = [dt for v in ph.lat.values() for dt in v]
    tail, pct, beyond = _tail(calls)
    detail.update(setup_samples_s=samples, distinct_ops=len(ph.lat), tail_percentile=pct,
                  tail_samples_beyond=beyond,
                  cold_probe_ms=[t * 1e3 for t in cold], cold_ratio=cold_ratio)
    metrics = {
        "items_per_s": (ph.items_per_s, "1/s"),
        "op_p50_ms": (statistics.median(calls) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(samples), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, ph


def _traced(args, mods, wl_factory, ref, detail) -> tuple[dict, list]:
    tracer = spans.Tracer(mods, mods["kauffman"].LaurentPoly2)
    tracer.install()
    try:
        wl = wl_factory()
    finally:
        tracer.uninstall()
    detail["sizing"] = wl.sizing
    _warm(wl)
    plain, ph = Phase(wl, ref), Phase(wl, ref, tracer)
    while plain.wall + ph.wall < args.seconds:
        plain.run_round()
        tracer.install()
        try:
            ph.run_round()
        finally:
            tracer.uninstall()
    for p in (plain, ph):
        p.check_end()
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.bin.gz"
    tracer.spans.save(path)
    detail["spans_file"] = str(path.relative_to(ROOT))
    detail["spans"] = len(tracer.spans)
    metrics = layers.metrics(tracer.spans, ph, plain)
    return metrics, [plain, ph]


def _warm(wl) -> None:
    """One untimed op, so lazy imports and module caches are filled first."""
    wl.op(wl.rounds[0][0])


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "twistlab" / "__init__.py").is_file():
        print(f"perfbench: no twistlab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        return _setup_only(args)

    import workloads
    from twistlab import cli, diagram, kauffman, notation, verify

    if not pathlib.Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: twistlab imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    mods = {"cli": cli, "verify": verify, "kauffman": kauffman,
            "diagram": diagram, "notation": notation}
    ref = reference.load()
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "load": workloads.LOAD}
    try:
        make = functools.partial(workloads.make, args.workload, args.seed, str(workdir))
        if args.trace:
            metrics, phases = _traced(args, mods, make, ref, detail)
        else:
            wl = make()
            detail["sizing"] = wl.sizing
            _warm(wl)
            metrics, ph = _end_to_end(args, wl, ref, detail)
            phases = [ph]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    attempted = sum(p.ops for p in phases)
    errors = [e for p in phases for _, e in p.failures]
    detail.update(
        ops=[p.ops for p in phases],
        rounds=[p.rounds for p in phases],
        timed_s=[p.wall for p in phases],
        error_rate=len(errors) / attempted,
        first_errors=errors[:5],
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
