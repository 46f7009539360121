"""Benchmark of the spatent command line: experiment throughput, decompose latency.

    python3 perfbench/run.py --workload experiment-default --seed 1 --seconds 30 --trace 0

Runs one workload in this process, one ``spatent.cli.main`` call at a time,
with the package imported from ``src/`` of the checkout that holds this
file.  Inputs come from ``--seed`` and are made before timing starts.  Every
output is checked (see checks.py); an operation that exits non-zero, raises
or writes a wrong output counts as failed.

With ``--trace 0`` the run reports the end-to-end metrics, their times
counted in refs of a reference kernel time-sliced into the run, so that
they do not move with the machine's speed (see reference.py).  With
``--trace 1`` every other operation runs with the span tracer of tracing.py
installed, and the run reports per-layer metrics from those spans, plus the
tracing overhead measured against the interleaved untraced operations.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it list every metric by
name and unit.  A fuller record (environment, input digests, samples,
failures, and the spans of a traced run) goes to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

SETUP_SAMPLES = 9
# the child prints the system-wide monotonic clock once the parser is built
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import spatent, spatent.cli; spatent.cli.build_parser(); "
    "import time; print(repr(time.perf_counter()))"
)
# No operation starts that would, at the previous operation's pace, end
# later than this into the run, so a run ends within 180 s even when slow.
HARD_LIMIT_S = 140.0

# the default eight-scenario design of `spatent experiment`
DESIGN = (
    ("compact", 2), ("repulsive", 2), ("multicluster", 2), ("random", 2),
    ("compact", 5), ("random", 5), ("compact", 20), ("random", 20),
)
# sha256 prefixes of `spatent experiment --replicates 10 --seed 0` output
EXPERIMENT_PINS = {"results_long.csv": "d3f803faeefd5d7c", "summary.csv": "38ee305e3b9320c8"}


def import_spatent():
    """Import spatent from this checkout's src/, never from anywhere else."""
    if not (SRC / "spatent" / "__init__.py").is_file():
        raise SystemExit(f"spatent sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import spatent
    import spatent.cli

    if SRC.resolve() not in Path(spatent.__file__).resolve().parents:
        raise SystemExit(f"imported spatent from {spatent.__file__}, not from {SRC}")
    return spatent


# ---------------------------------------------------------------------------
# workloads

class Experiment:
    """`spatent experiment --replicates 10 --seed <seed>`: the default design at 50x50.

    Every module runs here: generation, the pair tally (5 per grid), the
    decomposition, the classical indices and the CSV/quantile writing.
    """

    cycle = 1

    def __init__(self, spatent, seed: int, work: Path, toy: bool = False):
        self.seed, self.toy = seed, toy
        self.rows = self.cols = 10 if toy else 50
        self.replicates = 1 if toy else 10
        self.grids_per_op = len(DESIGN) * (self.replicates + 1)
        self.pixels = self.rows * self.cols
        self.out = work / "experiment"
        self.warm = work / "warmup"
        self.inputs: dict = {}
        self._digests = None
        self._spatent = spatent

    def reference_grids(self):
        """Replicate 0 of every scenario of the design, as the CLI draws it."""
        sim = self._spatent.simgen
        return [
            (sim.generate(sim.ScenarioSpec(
                kind, self.rows, self.cols, k, "dirichlet", sim.replicate_seed(self.seed, kind, k, 0),
            )).matrix, k)
            for kind, k in DESIGN
        ]

    def _argv(self, replicates, rows, out):
        return [
            "experiment", "--replicates", str(replicates), "--seed", str(self.seed),
            "--rows", str(rows), "--cols", str(rows), "--out", str(out),
        ]

    def warmup_argvs(self):
        return [self._argv(1, 10, self.warm)]

    def argv(self, j: int):
        return self._argv(self.replicates, self.rows, self.out)

    def clear(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def check(self) -> list:
        bad = checks.check_experiment(self.out, DESIGN, self.replicates, self.rows, self.cols)
        if bad:
            return bad
        digests = {name: checks.sha256(self.out / name) for name in EXPERIMENT_PINS}
        if self.seed == 0 and not self.toy:
            for name, prefix in EXPERIMENT_PINS.items():
                if not digests[name].startswith(prefix):
                    bad.append(f"{name} sha256 {digests[name][:16]} != pinned {prefix}")
        if self._digests is None:
            self._digests = digests
        elif digests != self._digests:
            bad.append("output differs from the first operation of this run")
        return bad

    def rows_written(self) -> int:
        return sum(
            len((self.out / name).read_text(encoding="ascii").splitlines()) - 1
            for name in EXPERIMENT_PINS
        )


class Decompose:
    """`spatent decompose <file> --format json` over seeded grid files."""

    cycle = 2
    grids_per_op = 1

    def __init__(self, spatent, seed, work, *, size, categories, count, both_orders):
        self.rows = self.cols = size
        self.pixels = size * size
        self.both_orders = both_orders
        self.out = work / "decompose.json"
        self.paths = []
        self.inputs = {}
        self._reference = []
        sim, lat = spatent.simgen, spatent.lattice
        for i in range(count):
            kind = ("random", "compact")[i % 2]
            spec = sim.ScenarioSpec(
                kind, size, size, categories, "dirichlet",
                sim.replicate_seed(seed, kind, categories, i),
            )
            path = work / f"{kind}_x{categories}_{size}_{i:03d}.grid"
            grid = sim.generate(spec)
            lat.write_grid(grid, path)
            if i < 2:
                self._reference.append((grid.matrix, categories))
            self.paths.append(path)
            self.inputs[path.name] = checks.sha256(path)
        warm = sim.ScenarioSpec("random", 8, 8, categories, "dirichlet", (seed,))
        self.warm = work / "warmup.grid"
        lat.write_grid(sim.generate(warm), self.warm)

    def reference_grids(self):
        """The first random and the first compact input."""
        return self._reference

    def _op(self, j):
        if self.both_orders:
            return self.paths[(j // 2) % len(self.paths)], j % 2 == 1
        return self.paths[j % len(self.paths)], False

    def _argv(self, path, ordered):
        argv = ["decompose", str(path), "--format", "json", "--out", str(self.out)]
        return argv + ["--ordered"] if ordered else argv

    def warmup_argvs(self):
        return [self._argv(self.warm, o) for o in ((False, True) if self.both_orders else (False,))]

    def argv(self, j: int):
        return self._argv(*self._op(j))

    def clear(self):
        self.out.unlink(missing_ok=True)

    def check(self) -> list:
        return checks.check_decompose_json(self.out, self.rows, self.cols)

    def rows_written(self) -> int:
        return len(json.loads(self.out.read_text(encoding="ascii"))["bands"])


def make_workload(name, spatent, seed, work, toy=False):
    """The three workloads; ``toy`` shrinks them to 8x8/10x10 for the smoke test."""
    if name == "experiment-default":
        return Experiment(spatent, seed, work, toy)
    if name == "decompose-large":
        # two big maps: >99% of the time in one banded pair tally
        return Decompose(spatent, seed, work, size=8 if toy else 200, categories=2,
                         count=2, both_orders=False)
    if name == "decompose-many-categories":
        # 20 categories: 210 unordered / 400 ordered pair codes per band
        return Decompose(spatent, seed, work, size=8 if toy else 50, categories=20,
                         count=4 if toy else 100, both_orders=True)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("experiment-default", "decompose-large", "decompose-many-categories")


# ---------------------------------------------------------------------------
# measurement

def setup_seconds(samples: int = SETUP_SAMPLES) -> list:
    """Wall times of fresh interpreters importing spatent and building the parser.

    Each time ends when the child has built the parser, read from the child's
    own clock: waiting for the exit with a timeout polls every 50 ms.
    """
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True, timeout=60,
        )
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def call_cli(cli, argv):
    """One CLI call with its stdout discarded: (exit code or None, error text)."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv), None
        except SystemExit as exc:
            return exc.code, f"SystemExit({exc.code!r})"
        except Exception as exc:  # a failed operation is counted, not fatal
            return None, repr(exc)


def run_ops(workload, cli, seconds: float, tracer=None, sampler=None) -> list:
    """Run operations until ``seconds`` have passed and a whole cycle is done.

    With a tracer, operation k runs input k // 2, traced when k is even, so
    each input is run once traced and once untraced.  With a sampler, the
    reference kernel is time-sliced into the run, and an operation's ``s``
    is its wall time less the time the kernel took during it.
    """
    period = workload.cycle * (2 if tracer else 1)
    ops = []
    if sampler:
        sampler.start()
    try:
        _run_ops(workload, cli, seconds, tracer, sampler, period, ops)
    finally:
        if sampler:
            sampler.stop()
    return ops


def _run_ops(workload, cli, seconds, tracer, sampler, period, ops) -> None:
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if ops and len(ops) % period == 0 and elapsed >= seconds:
            break
        if ops and elapsed + ops[-1]["s"] > HARD_LIMIT_S:
            break
        k = len(ops)
        j, traced = (k // 2, k % 2 == 0) if tracer else (k, False)
        workload.clear()
        argv = workload.argv(j)
        gc.collect()
        if traced:
            tracer.op = k
            tracer.install()
        busy = sampler.busy if sampler else 0.0
        start = time.perf_counter()
        try:
            code, error = call_cli(cli, argv)
        finally:
            end = time.perf_counter()
            if traced:
                tracer.uninstall()
        duration = end - start - ((sampler.busy - busy) if sampler else 0.0)
        failures = [error] if error else []
        if code != 0:
            failures.append(f"exit code {code!r}")
        if not failures:
            failures = workload.check()
        op = {"s": duration, "start": start, "end": end, "traced": traced, "failures": failures}
        if not failures:
            op["rows_written"] = workload.rows_written()
        ops.append(op)


def end_to_end(workload, ops, setup, sampler) -> tuple:
    """(metrics in BENCHMARK.json, further printed metrics), both name -> (value, unit).

    ``grids_per_ref`` and ``grid_ref_p50`` divide each operation's time by
    the reference time measured around it (see reference.py); the wall-clock
    ``grids_per_s`` and ``grid_s_p50`` are printed next to them.
    """
    grids = workload.grids_per_op
    ok = [op for op in ops if not op["failures"]]
    refs = [sampler.ref_seconds(op["start"], op["end"]) for op in ops]
    for op, r in zip(ops, refs):
        op["ref_s"] = r

    def per_grid(op, unit_s):
        return op["s"] / unit_s / grids if not op["failures"] else math.inf

    per_grid_s = sorted(per_grid(op, 1.0) for op in ops)
    per_grid_ref = sorted(per_grid(op, r) for op, r in zip(ops, refs))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "grids_per_ref": (
            len(ok) * grids / sum(op["s"] / r for op, r in zip(ops, refs)), "1/ref"
        ),
        "grid_ref_p50": (statistics.median(per_grid_ref), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "grids_per_s": (len(ok) * grids / sum(op["s"] for op in ops), "1/s"),
        "grid_s_p50": (statistics.median(per_grid_s), "s"),
        "ref_s_p50": (statistics.median(refs), "s"),
        "ref_samples": (len(sampler.samples), "count"),
        "error_rate": ((len(ops) - len(ok)) / len(ops), "ratio"),
        "grid_s_samples": (len(per_grid_s), "count"),
    }
    # a p90 needs at least ten samples beyond it
    if len(per_grid_s) >= 100:
        extra["grid_s_p90"] = (statistics.quantiles(per_grid_s, n=10)[-1], "s")
    return metrics, extra


# (metric, span names); time is the outermost spans' duration, per grid
LAYER_TIMES = (
    ("simgen.generate_ms", ("simgen.generate",)),
    ("cooccur.enumerate_pairs_ms", ("cooccur.enumerate_pairs",)),
    ("cooccur.conditional_pmfs_ms", ("cooccur.conditional_pmfs",)),
    ("decomp.decompose_distributions_ms", ("decomp.decompose_distributions",)),
    ("classic.contiguity_ms", (
        "classic.oneill_entropy", "classic.leibovici_entropy",
        "classic.relative_contagion", "classic.parresol_edwards_entropy",
    )),
    ("classic.area_ms", (
        "classic.estimate_area_probs", "classic.batty_entropy", "classic.karlstrom_entropy",
    )),
    ("lattice.read_grid_ms", ("lattice.read_grid",)),
)
# per plan, i.e. per experiment call
PLAN_TIMES = (
    ("lattice.partition_window_ms", ("lattice.partition_window",)),
    ("classic.build_area_neighbourhood_ms", ("classic.build_area_neighbourhood",)),
)


def per_layer(workload, ops, tracer) -> dict:
    """Per-layer metrics from the spans of the traced operations: name -> (value, unit)."""
    spans = tracer.spans
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    grids = len(traced) * workload.grids_per_op
    plans = len(traced) if isinstance(workload, Experiment) else 0
    selfs = tracing.self_times(spans)

    def total_ms(names):
        return sum(spans[i][4] - spans[i][3] for i in tracing.outermost(spans, names)) / 1e6

    metrics = {}
    for name, names in LAYER_TIMES:
        metrics[name] = (total_ms(names) / grids, "ms")
    for name, names in PLAN_TIMES:
        metrics[name] = (total_ms(names) / plans if plans else 0.0, "ms")
    prob_names = {s[0] for s in spans if s[0].startswith("prob.")}
    metrics["prob.ms"] = (total_ms(prob_names) / grids, "ms")
    metrics["prob.calls"] = (len(tracing.outermost(spans, prob_names)) / grids, "count")
    calls = sum(1 for s in spans if s[0] == "cooccur.enumerate_pairs")
    metrics["cooccur.enumerate_pairs_calls"] = (calls / grids, "count")
    metrics["cooccur.pairs_tallied"] = (tracer.pairs_tallied / grids, "count")
    needed = grids * workload.pixels * (workload.pixels - 1) // 2
    metrics["cooccur.tally_yield"] = (
        needed / tracer.pairs_tallied if tracer.pairs_tallied else 0.0, "ratio"
    )
    for layer in tracing.LAYERS:
        own = sum(t for s, t in zip(spans, selfs) if s[0].startswith(layer + "."))
        metrics[f"{layer}.self_ms"] = (own / 1e6 / grids, "ms")
    metrics["cli.rows_written"] = (sum(op.get("rows_written", 0) for op in traced) / grids, "count")
    t_traced = sum(op["s"] for op in traced) / len(traced)
    t_plain = sum(op["s"] for op in untraced) / len(untraced)
    metrics["trace.overhead_pct"] = (100.0 * (t_traced / t_plain - 1.0), "%")
    return metrics


# ---------------------------------------------------------------------------
# environment record

def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
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
    return "unknown"


def environment(traced: bool) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "commit": git_commit(),
        "mode": "traced" if traced else "untraced",
    }


# ---------------------------------------------------------------------------

def run(workload_name: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    spatent = import_spatent()
    env = environment(trace)
    work = WORK / f"{workload_name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = make_workload(workload_name, spatent, seed, work, toy)
        # a failing warm-up is not fatal: the measured operations will fail too
        for argv in workload.warmup_argvs():
            call_cli(spatent.cli, argv)
        setup = [] if trace else setup_seconds(3 if toy else SETUP_SAMPLES)
        tracer = tracing.Tracer() if trace else None
        # the reference kernel would land inside spans, so a traced run has none
        sampler = None
        if not trace:
            sampler = reference.ReferenceSampler(workload.reference_grids())
            for _ in range(reference.MIN_SAMPLES):
                sampler.sample()
        ops = run_ops(workload, spatent.cli, seconds, tracer, sampler)
        if sampler:
            for _ in range(reference.MIN_SAMPLES):
                sampler.sample()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()

    if trace:
        metrics, extra = per_layer(workload, ops, tracer), {}
    else:
        metrics, extra = end_to_end(workload, ops, setup, sampler)
    failed = sum(1 for op in ops if op["failures"])
    record = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "environment": env,
        "inputs_sha256": workload.inputs,
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "setup_samples_s": setup,
        "ops": [{k: op[k] for k in ("s", "ref_s", "traced", "failures") if k in op} for op in ops],
        "result": {
            "correct": failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        (results / f"{stem}-spans.json").write_text(
            json.dumps({"fields": ["name", "parent", "op", "start_ns", "end_ns"],
                        "spans": tracer.spans}) + "\n"
        )
    return record


def report(record) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  mode {env['mode']}")
    print(
        f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
        f"commit {env['commit'][:12]}  loadavg {env['loadavg_start'][0]:.2f} -> "
        f"{env['loadavg_end'][0]:.2f}"
    )
    for name, sha in record["inputs_sha256"].items():
        print(f"input {name} sha256 {sha[:16]}")
    for metrics in (record["result"]["metrics"], record["extra"]):
        for name, m in metrics.items():
            print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for op in record["ops"]:
        for msg in op["failures"][:3]:
            print(f"FAIL {msg}")
    print(json.dumps(record["result"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
