"""chainconc benchmark: one workload in one process, closed loop, checked outputs.

    python3 perfbench/run.py --workload certify_sweep --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports chainconc from its
``src/``. The timed phase repeats passes over the workload's fixed op list,
one op at a time, while the next pass is projected to end within --seconds
(at least one pass). Before every pass comes an untimed set-up (import,
seeded inputs, input and certificate files, one warm-up op); set-up is timed
on its own and its median over at least SETUPS repeats, and at least
SETUP_SECONDS of set-up, is reported. Every op's output is hashed after its
pass and checked against numpy oracles once the timed phase is over.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes, ends with one untimed pass that also records tracemalloc peaks,
and prints the per-layer metrics. The last
line of stdout is the JSON result; a per-run record with the machine stamp,
per-op latencies, report sha256 digests and the full per-function breakdown
is written to .perfbench_out/.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# numpy reads these when it is first imported, so they are fixed before any import of it.
# One BLAS thread unless set otherwise: ops run one at a time, and on two shared
# vCPUs a second BLAS thread made certify_sweep's pass time vary by 15%, one by 1%.
for _var in BLAS_THREAD_VARS:
    try:
        _threads = int(os.environ[_var])
    except (KeyError, ValueError):
        _threads = 1
    os.environ[_var] = str(min(max(_threads, 1), NPROC))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")
OUT = Path(".perfbench_out")
SETUPS = 9  # at least; one set-up precedes every pass
SETUP_SECONDS = 2.0  # at least, summed: policy_class sets up in about 0.07 s
# smallest share of an op span its wrapped call must cover. Outside that call
# an op spends 30-70 us (0.2% of the shortest op); an op whose wrapper did not
# install is covered about 0, and the margin leaves room for a GC pause.
MIN_COVERAGE = 0.95

# public functions wrapped in the traced run, as <module>.<name>
TARGETS = (
    "gamma.operator_norm", "gamma.gamma_contractive", "gamma.gamma_ergodic",
    "coupling.wasserstein_matrix_tv", "chain.block_law_given_coordinate",
    "concentration.certify", "concentration.mixing_time",
    "concentration.conditional_expectation_tables", "concentration.TabularFunction.from_vectorized",
    "chain.trajectories_from_uniforms", "chain.validate_chain", "chain.chain_from_dict",
    "chain.dobrushin_coefficient", "chain.t_step_pair_tv", "rng.uniform_matrix",
    "verify.empirical_tail", "verify.empirical_mgf", "verify.empirical_sup_value",
    "rl.enumerate_policies", "rl.induced_chain", "rl.exact_value", "rl.dudley_bound",
    "cli.main",
)
MEMORY_SPANS = ("verify.empirical_tail", "verify.empirical_mgf", "verify.empirical_sup_value")
COMPUTED = ("rng.variates", "chain.traj_coords", "coupling.block_entries")
DISTINCT = ("concentration.mixing_time", "rl.induced_chain")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "chainconc" / "__init__.py").is_file():
    fail(f"no chainconc sources under {SRC}; run from a chainconc checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import selftest  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def import_chainconc() -> dict:
    """Fresh import of the package under test; returns its modules by short name."""
    for name in [n for n in sys.modules if n == "chainconc" or n.startswith("chainconc.")]:
        del sys.modules[name]
    pkg = importlib.import_module("chainconc")
    if Path(pkg.__file__).resolve().parent != (SRC / "chainconc").resolve():
        fail(f"imported chainconc from {pkg.__file__}, not from {SRC}")
    mods = {"chainconc": pkg}
    for short in ("cli", "verify"):
        mods[short] = importlib.import_module(f"chainconc.{short}")
    return mods


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _read(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _tail_problems(tail: dict, exact_center: float, center_tol: float) -> list[str]:
    problems = []
    if tail["violations"]:
        problems.append(f"tail/MGF bound violated at grid points {tail['violations']}")
    if not abs(tail["center"] - exact_center) <= center_tol:
        problems.append(f"center {tail['center']!r} vs exact {exact_center!r} "
                        f"(tolerance {center_tol!r})")
    return problems


class Op:
    """One benchmark operation: how to run it, which files it writes, how to check them."""

    def __init__(self, spec: dict, ctx: "Context"):
        self.name = spec["name"]
        self.spec = spec
        self.ctx = ctx
        self.kind = spec["kind"]
        out = ctx.outdir / self.name
        inp = ctx.indir
        if self.kind == "certify":
            self.files = [out.with_suffix(".json"), out.with_suffix(".csv")]
            self.argv = ["certify", "--input", str(inp / spec["input"]),
                         "--output", str(self.files[0]), *spec["args"]]
        elif self.kind == "verify":
            self.files = [out.with_suffix(".json"), out.with_suffix(".csv")]
            self.argv = ["verify", "--input", str(inp / spec["input"]),
                         "--certificate", str(inp / spec["certificate"]),
                         "--cap", str(workloads.DEMO_CAP),
                         "--replicates", str(workloads.TAIL_REPLICATES),
                         "--seed", str(spec["seed"]), "--output", str(self.files[0])]
        elif self.kind == "demo":
            self.files = [out / f for f in ("demo_certificate.json", "demo_certificate.csv",
                                            "demo_certificate_ergodic.json", "demo_tail.json",
                                            "demo_tail.csv")]
            self.argv = ["demo", "--output", str(out), "--cap", str(workloads.DEMO_CAP),
                         "--replicates", str(workloads.TAIL_REPLICATES),
                         "--seed", str(spec["seed"])]
        elif self.kind in ("rl-bound", "rl-verify"):
            self.files = [out.with_suffix(".json")]
            self.argv = [self.kind, "--input", str(inp / spec["input"]),
                         "--output", str(self.files[0]), *spec["args"]]
        else:
            self.files = []
            self.argv = None

    def execute(self):
        """Run the op; returns (exit code or result object, error text or None)."""
        mods = self.ctx.mods
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if self.argv is not None:
                    return mods["cli"].main(self.argv), None
                spec = self.spec
                lib = self.ctx.library[spec["chain"]]
                fn = getattr(mods["verify"], spec["kind"])
                return fn(lib["spec"], lib["functions"][spec["value"]], lib["sigma2"],
                          replicates=workloads.TAIL_REPLICATES, seed=spec["seed"]), None
        except (Exception, SystemExit) as exc:  # any escape is a failed op, recorded
            return None, f"{type(exc).__name__}: {exc} | {sink.getvalue()[-300:]}"

    def digest(self, result) -> tuple[dict, int]:
        """sha256 of each report file (or of a library result) and bytes written."""
        if self.argv is None:
            blob = json.dumps(result.to_dict(), sort_keys=True).encode()
            return {"result": hashlib.sha256(blob).hexdigest()}, 0
        shas = {p.name: sha256_file(p) for p in self.files}
        return shas, sum(p.stat().st_size for p in self.files)

    def problems(self, result, paths: list[Path]) -> tuple[list[str], float]:
        """Oracle check of this op's output files (or result); also the largest
        operator-norm gap seen."""
        kind, spec, files = self.kind, self.spec, self.ctx.files
        if kind == "certify":
            return oracles.report_problems(_read(paths[0])["report"], files[spec["input"]])
        if kind == "verify":
            doc = files[spec["input"]]
            exact = oracles.weighted_count_mean(doc, spec["value"], np.ones(doc["n"]))
            return _tail_problems(_read(paths[0])["tail"], exact, 1e-9), 0.0
        if kind == "demo":
            demo = files["demo_chain.json"]
            found, gap = oracles.report_problems(_read(paths[0])["report"], demo)
            more, gap2 = oracles.report_problems(_read(paths[2])["report"], None)
            exact = oracles.weighted_count_mean(demo, 1, np.ones(demo["n"]))
            tail = _tail_problems(_read(paths[3])["tail"], exact, 1e-9)
            return found + more + tail, max(gap, gap2)
        if kind in ("rl-bound", "rl-verify"):
            doc = _read(paths[0])
            found, gap = oracles.rl_problems(doc, files[spec["input"]])
            if kind == "rl-verify" and "empirical_sup" not in doc:
                found.append("rl-verify report has no empirical_sup")
            return found, gap
        # library Monte Carlo op: a pilot-centred callable, checked against the exact
        # mean within 6 standard errors (the variance is at most the certified sigma2)
        lib = self.ctx.library[spec["chain"]]
        est = result.to_dict()
        pilot = int(est["center_method"].strip("pilot()"))
        tol = 6.0 * math.sqrt(lib["sigma2"] / pilot)
        exact = oracles.weighted_count_mean(files[spec["chain"]], spec["value"], lib["weights"])
        return _tail_problems(est, exact, tol), 0.0


class Context:
    """Everything one set-up produces: modules, written inputs, library objects, ops."""

    def __init__(self, workload: str, seed: int, rundir: Path):
        self.mods = import_chainconc()
        inputs = workloads.generate(workload, seed)
        self.digest = workloads.digest(inputs)
        self.indir, self.outdir = rundir / "in", rundir / "out"
        for d in (self.indir, self.outdir):
            d.mkdir(parents=True, exist_ok=True)
        self.files = inputs["files"]
        for name, doc in self.files.items():
            with open(self.indir / name, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        self.library = {}
        cc = self.mods["chainconc"]
        if workload == "tail_mc":
            demo = cc.chain_from_dict(self.files["demo_chain.json"])
            cert = cc.certify(demo, cc.LipschitzWeights.ones(demo.n), "contractive")
            with open(self.indir / "demo_cert.json", "w", encoding="utf-8") as fh:
                json.dump({"report": cert.to_dict()}, fh)
            doc = self.files["tail_chain.json"]
            spec = cc.chain_from_dict(doc)
            weights = np.asarray(doc["weights"])
            sigma2 = cc.certify(spec, cc.LipschitzWeights.from_array(weights),
                                "contractive").sigma2_opnorm
            functions = {v: _weighted_count(v, weights) for v in range(workloads.TAIL_S)}
            self.library["tail_chain.json"] = {"spec": spec, "sigma2": sigma2,
                                               "weights": weights, "functions": functions}
        self.ops = [Op(spec, self) for spec in inputs["ops"]]
        self.warmup = Op(inputs["warmup"], self)


def _weighted_count(value: int, weights: np.ndarray):
    """Vectorised f(trajectories) = sum_i c_i 1{X_i = value}, one value per row."""
    def f(states):
        return (states == value) @ weights
    return f


class Checker:
    """Hashes each op's output after its pass and sets new outputs aside for the oracles.

    The oracles run once all passes are done (``verdict``), so parsing large
    reports does not disturb the heap between timed passes. Byte-identical
    outputs of one op share one verdict.
    """

    def __init__(self, keepdir: Path):
        self.keepdir = keepdir
        self.kept: dict[tuple, tuple[Op, object, list[Path]]] = {}
        self.verdicts: dict[tuple, list[str]] = {}
        self.digests: dict[str, list[dict]] = {}
        self.gap_max = 0.0

    def record(self, op: Op, outcome) -> tuple[tuple | str, int]:
        """(key of the output, or the error text; report bytes written)."""
        result, error = outcome
        if error is None and op.argv is not None and result != 0:
            error = f"exit code {result}"
        if error is None:
            try:
                shas, nbytes = op.digest(result)
            except OSError as exc:
                error = f"missing output: {exc}"
        if error is not None:
            return f"{op.name}: {error}", 0
        key = (op.name, json.dumps(shas, sort_keys=True))
        if key not in self.kept:
            self.digests.setdefault(op.name, []).append(shas)
            dest = self.keepdir / str(len(self.kept))
            dest.mkdir(parents=True)
            files = [dest / p.name for p in op.files]
            for src, dst in zip(op.files, files):
                os.replace(src, dst)
            self.kept[key] = (op, result, files)
        return key, nbytes

    def verdict(self, key: tuple | str) -> list[str]:
        """Problems with one recorded outcome (oracles run on first request)."""
        if isinstance(key, str):
            return [key]
        if key not in self.verdicts:
            op, result, files = self.kept[key]
            try:
                found, gap = op.problems(result, files)
            except (OSError, KeyError, ValueError, TypeError) as exc:
                found, gap = [f"unreadable output: {type(exc).__name__}: {exc}"], 0.0
            self.verdicts[key] = [f"{op.name}: {p}" for p in found]
            self.gap_max = max(self.gap_max, gap)
        return self.verdicts[key]


def make_tracer(memory: bool) -> spans.Tracer:
    """Tracer with the hooks that count computed work at the layer boundaries;
    with ``memory``, the verify spans also record their tracemalloc peak."""
    def variates(tr, args, kwargs, result):
        tr.counts["rng.variates"] += int(result.size)

    def coords(tr, args, kwargs, result):
        tr.counts["chain.traj_coords"] += int(result.size)

    def block(tr, args, kwargs, result):
        tr.counts["coupling.block_entries"] += int(result.probs.size)

    def policy(tr, args, kwargs, result):
        pi = args[1] if len(args) > 1 else kwargs["pi"]
        tr.mark_distinct("rl.induced_chain", (tr.op_id, pi.key()))

    def mixing(tr, args, kwargs, result):
        spec = args[0]
        eps = args[1] if len(args) > 1 else kwargs["eps"]
        h = hashlib.sha1(spec.initial.probs.tobytes())
        for k in spec.kernels:
            h.update(k.rows.tobytes())
        tr.mark_distinct("concentration.mixing_time", (tr.op_id, eps, h.hexdigest()))

    return spans.Tracer(hooks={"rng.uniform_matrix": variates,
                               "chain.trajectories_from_uniforms": coords,
                               "chain.block_law_given_coordinate": block,
                               "rl.induced_chain": policy,
                               "concentration.mixing_time": mixing},
                        memory_spans=MEMORY_SPANS if memory else ())


def run_pass(ops: list[Op], checker: Checker, tracer: spans.Tracer | None, kind: str) -> dict:
    """One closed-loop pass over the op list; outputs are recorded after the clock stops.

    ``kind`` is "plain" (no tracer), "traced" (spans only) or "memory" (spans
    and tracemalloc; not timed)."""
    gc.collect()
    outcomes, latencies = [], []
    if tracer is not None:
        tracer.reset()
        installed = spans.installed(tracer, spans.resolve(TARGETS), spans.package_modules())
    else:
        installed = contextlib.nullcontext()
    with installed:
        start = time.perf_counter()
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            with tracer.op(i) if tracer is not None else contextlib.nullcontext():
                outcomes.append(op.execute())
            latencies.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start
    keys, report_bytes = [], 0
    for op, outcome in zip(ops, outcomes):
        key, nbytes = checker.record(op, outcome)
        keys.append(key)
        report_bytes += nbytes
    record = {"kind": kind, "wall_s": wall, "latencies_s": latencies,
              "keys": keys, "report_bytes": report_bytes}
    if tracer is not None:
        summary = tracer.summary()
        record["trace"] = {
            "calls": summary["calls"], "self_ns": summary["self_ns"], "spans": summary["spans"],
            "op_cover": summary["op_cover"],
            "counts": dict(tracer.counts),
            "distinct": {k: len(v) for k, v in tracer.distinct.items()},
            "peak_mb": {k: v / 2**20 for k, v in tracer.peak_bytes.items()},
        }
    return record


def timed_phase(set_up, checker: Checker, seconds: float, trace: bool) -> list[dict]:
    """Passes while the next is projected to end within `seconds`; traced ones alternate.

    Each pass runs on a fresh set-up (``set_up()`` returns a Context), so the
    set-up samples are spread over the run like the passes. A traced run ends
    with one untimed memory pass.
    """
    tracer = make_tracer(memory=False) if trace else None
    passes: list[dict] = []
    elapsed = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        kind = "traced" if traced else "plain"
        passes.append(run_pass(set_up().ops, checker, tracer if traced else None, kind))
        elapsed += passes[-1]["wall_s"]
        if trace and len(passes) < 2:
            continue
        next_kind = "traced" if trace and len(passes) % 2 == 1 else "plain"
        same_kind = [p["wall_s"] for p in passes if p["kind"] == next_kind]
        if elapsed + same_kind[-1] > seconds:
            break
    if trace:
        passes.append(run_pass(set_up().ops, checker, make_tracer(memory=True), "memory"))
    return passes


def layer_metrics(passes: list[dict], checker: Checker) -> tuple[dict, list[str]]:
    """Per-layer metrics: median self times over the traced passes, per-pass
    counts, and tracemalloc peaks from the memory pass."""
    traced = [p for p in passes if p["kind"] == "traced"]
    memory = next(p["trace"] for p in passes if p["kind"] == "memory")
    problems = []
    traces = [p["trace"] for p in traced]
    first = traces[0]
    for t in traces[1:] + [memory]:
        if (t["calls"], t["counts"], t["distinct"]) != (first["calls"], first["counts"],
                                                         first["distinct"]):
            problems.append("computed counts differ between traced passes")
    wall = statistics.median(p["wall_s"] for p in traced)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def self_s(fn):
        return statistics.median(t["self_ns"].get(fn, 0) for t in traces) / 1e9

    for fn in TARGETS:
        put(f"{fn}.self_s", self_s(fn), "s")
        put(f"{fn}.calls", first["calls"].get(fn, 0), "count")
    for name in COMPUTED:
        put(name, first["counts"].get(name, 0), "count")
    put("cli.report_bytes", traced[0]["report_bytes"], "count")
    for fn in DISTINCT:
        calls = first["calls"].get(fn, 0)
        put(f"{fn}.useful_ratio", first["distinct"].get(fn, 0) / calls if calls else 0.0, "1")
    put("gamma.opnorm_rel_gap_max", checker.gap_max, "1")
    for fn in MEMORY_SPANS:
        put(f"{fn}.peak_mb", memory["peak_mb"].get(fn, 0.0), "MB")
    # every op calls cli.main or a verify function, so its wrapped child spans
    # must cover nearly all of it
    coverage = min(c for t in traces for c in t["op_cover"])
    if coverage < MIN_COVERAGE:
        problems.append(f"wrapped calls cover only {coverage:.4f} of an op span")
    put("trace.timed_wall_s", wall, "s")
    put("trace.overhead", wall / median_wall(passes), "1")
    put("trace.op_child_coverage", coverage, "1")
    return metrics, problems


def median_wall(passes: list[dict]) -> float:
    """Median wall time of the untraced passes."""
    return statistics.median(p["wall_s"] for p in passes if p["kind"] == "plain")


def machine_stamp(seed: int, workload: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = {}
    return {"workload": workload, "seed": seed, "nproc": NPROC, "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)

    problems = selftest.run(args.workload, args.seed)
    rundir = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(rundir, ignore_errors=True)
    checker = Checker(rundir / "kept")
    setup_s, digests, op_names = [], set(), []

    def set_up() -> Context:
        t0 = time.perf_counter()
        ctx = Context(args.workload, args.seed, rundir)
        warm = ctx.warmup.execute()
        setup_s.append(time.perf_counter() - t0)
        digests.add(ctx.digest)
        problems.extend(checker.verdict(checker.record(ctx.warmup, warm)[0]))
        op_names[:] = [op.name for op in ctx.ops]
        return ctx

    try:
        passes = timed_phase(set_up, checker, args.seconds, bool(args.trace))
        while len(setup_s) < SETUPS or sum(setup_s) < SETUP_SECONDS:
            set_up()
        if len(digests) != 1:
            problems.append("set-ups with one seed generated different inputs")
        # the program's peak, taken before the oracles parse its reports
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = []
        for p in passes:
            p["ok"] = []
            for key in p.pop("keys"):
                found = checker.verdict(key)
                p["ok"].append(not found)
                failures += [f for f in found if f not in failures]
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    plain = [p for p in passes if p["kind"] == "plain"]
    latencies = sorted(x for p in plain for x in p["latencies_s"])
    attempted = sum(len(p["ok"]) for p in passes)
    failed = sum(not ok for p in passes for ok in p["ok"])
    if args.trace:
        metrics, found = layer_metrics(passes, checker)
        problems += found
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "wall_s": {"value": median_wall(passes), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    correct = failed == 0 and not problems

    record = {
        "stamp": machine_stamp(args.seed, args.workload),
        "seconds": args.seconds, "trace": args.trace, "setup_runs_s": setup_s,
        "input_sha256": digests.pop() if len(digests) == 1 else sorted(digests),
        "passes": passes, "op_names": op_names,
        "op_count": len(latencies), "fail_ratio": failed / attempted,
        # median over the pass's ops of each op's median latency across passes
        "op_p50_s": statistics.median(
            statistics.median(lat) for lat in zip(*(p["latencies_s"] for p in plain))),
        "op_p90_s": statistics.quantiles(latencies, n=10)[-1] if len(latencies) >= 100 else None,
        "computed": {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"},
        "report_sha256": checker.digests, "failures": failures, "problems": problems,
        "correct": correct, "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in failures[:20] + problems:
        print(f"# FAIL {line}")
    print(f"# {args.workload} seed {args.seed}: {len(passes)} passes, {attempted} ops, "
          f"{failed} failed; record in {out_path}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
