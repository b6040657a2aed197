"""Benchmark: grade a seeded synthetic corpus with interaction-eval.

A closed loop with one client in one process: after writing the corpus it
evaluates one scene at a time (``load_scene``/``load_predictions`` ->
``pipeline.evaluate_scene``), folds the pass with ``metrics.aggregate`` and
writes it with the pipeline's CSV/JSON writers. Passes over the whole corpus
repeat until ``--seconds`` have gone by; when the first pass takes them all,
every ninth scene and the report are redone untimed, so that every run checks
that repeats give the same output. A scene that raises a named
``InteractionEvalError`` counts as not graded and the run goes on.

Times are in reference seconds (machine.py): each step's wall time scaled by
the speed a fixed reference loop shows just before and after it, which
cancels most of the slowdown other tenants of a shared machine cause.
Percentiles over scenes are Harrell-Davis estimates.

With ``--trace 0`` the last output line holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it holds the
per-layer metrics of the traced ones.

Run from the repository root:
    python3 perfbench/run.py --workload wod-10hz-predfile --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

from machine import REF_S, SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 7
# co-prime with the periods of the corpus schedules (5, 8 and 20 scenes), so
# that the rechecked scenes are of different kinds
RECHECK_EVERY = 9
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10  # scenes a reported tail percentile must leave above it

# how each workload grades its scenes
GRADING = {
    "wod-10hz-predfile": {"baseline": None},
    "intersection-2hz-oracle": {"baseline": "oracle", "oracle_k": 5},
    "dense-10hz-cv": {"baseline": "cv"},
}

E2E_UNITS = {"setup_s": "s", "scenes_per_s": "1/s", "pairs_per_s": "1/s",
             "pair_frames_per_s": "1/s", "scene_p50_s": "s", "scene_tail_s": "s",
             "peak_rss_mb": "MB", "scene_graded_ratio": "ratio"}


class BenchError(Exception):
    """The program's output failed a check: the run is not correct."""


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile that leaves at least TAIL_BEYOND of n scenes above it.

    Passes repeat the same scenes, so the count is of distinct scenes, not of
    latency samples: the percentile is fixed by the corpus, not by the speed
    of the program.
    """
    best = None
    for p in TAIL_LADDER:
        if n * (100.0 - p) >= 100.0 * TAIL_BEYOND - 1e-6:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A Beta-weighted mean of all order statistics: with a few tens of scenes
    it varies much less from run to run than a single order statistic.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    a, b = p / 100.0 * (n + 1), (1.0 - p / 100.0) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pdf = (np.where(grid > 0.0, (a - 1.0) * np.log(grid), 0.0 if a == 1.0 else -np.inf)
                   + np.where(grid < 1.0, (b - 1.0) * np.log1p(-grid), 0.0 if b == 1.0 else -np.inf))
    pdf = np.exp(log_pdf - log_pdf[np.isfinite(log_pdf)].max())
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))])
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(weights @ xs)


def strict_json(text: str):
    def reject(token):
        raise BenchError(f"report.json holds the non-JSON constant {token}")
    return json.loads(text, parse_constant=reject)


class Bench:
    def __init__(self, workload: str, seed: int, work_dir: Path):
        import interaction_eval
        from interaction_eval import metrics, pipeline, sceneio
        from interaction_eval.errors import InteractionEvalError

        self.ie, self.metrics, self.pipeline, self.sceneio = interaction_eval, metrics, pipeline, sceneio
        self.InteractionEvalError = InteractionEvalError
        self.workload = workload
        self.seed = seed
        self.grading = GRADING[workload]
        self.cfg = interaction_eval.EvalConfig()
        self.corpus_dir = work_dir / "corpus"
        self.out_dir = work_dir / "out"
        self.scenes: list = []  # (scene, predictions or None)
        self.labels: dict = {}
        self.scene_digests: dict[str, str] = {}
        self.fates: Counter = Counter()
        self.failures: Counter = Counter()
        self.attempted = 0
        self.first_results = None  # the first pass's results, kept for recheck()
        self.probe = SpeedProbe()

    # -- corpus and set-up ---------------------------------------------------

    def generate(self) -> dict:
        proc = subprocess.run(
            [sys.executable, str(HERE / "corpus.py"), "--workload", self.workload,
             "--seed", str(self.seed), "--out", str(self.corpus_dir)],
            capture_output=True, text=True, timeout=120, check=True)
        self.labels = json.loads((self.corpus_dir / "labels.json").read_text(encoding="utf-8"))
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def load(self) -> None:
        scenes = []
        for path in sorted((self.corpus_dir / "scenes").glob("*.json")):
            scene = self.sceneio.load_scene(path)
            preds = None
            if self.grading["baseline"] is None:
                preds = self.sceneio.load_predictions(self.corpus_dir / "preds" / path.name, scene)
            scenes.append((scene, preds))
        self.scenes = scenes

    def setup(self) -> tuple[list[float], float]:
        """SETUP_REPEATS times: a fresh-process import of the package, timed
        inside the child, plus loading the whole corpus.

        Returns the wall seconds of each repeat and their median in reference
        seconds, scaled by the median of the reference loops run around them.
        """
        env = dict(os.environ, PYTHONPATH=str(SRC))
        child = ("import time; t0 = time.perf_counter(); import interaction_eval; "
                 "print(time.perf_counter() - t0)")
        walls, probes = [], []
        for _ in range(SETUP_REPEATS):
            self.scenes = []
            probes.append(self.probe.sample())
            proc = subprocess.run([sys.executable, "-c", child], env=env, check=True,
                                  capture_output=True, text=True, timeout=120)
            t0 = time.perf_counter()
            self.load()
            walls.append(float(proc.stdout) + time.perf_counter() - t0)
            probes.append(self.probe.sample())
        return walls, statistics.median(walls) * REF_S / statistics.median(probes)

    # -- one pass over the corpus --------------------------------------------

    def evaluate(self, scene, preds, tracer=None):
        self.attempted += 1
        if tracer is not None:
            tracer.scene_id = scene.scene_id
        kw = {"baseline": self.grading["baseline"]}
        if "oracle_k" in self.grading:
            kw["oracle_k"] = self.grading["oracle_k"]
        try:
            return self.pipeline.evaluate_scene(scene, self.cfg, predictions=preds, **kw)
        except self.InteractionEvalError as e:
            if type(e) is self.InteractionEvalError:
                raise BenchError(f"{scene.scene_id}: unnamed InteractionEvalError: {e}") from e
            return e
        except Exception as e:
            raise BenchError(f"{scene.scene_id}: {type(e).__name__} is not an "
                             f"InteractionEvalError: {e}") from e
        finally:
            if tracer is not None:
                tracer.scene_id = None

    def check_scene(self, scene, result, first_pass: bool) -> None:
        """Filter outcomes must match the generator's labels; repeats must match pass 1."""
        if isinstance(result, Exception):
            digest = f"error:{type(result).__name__}"
        else:
            observed = {tuple(sorted((p.pair.agent_a, p.pair.agent_b))): "Accepted"
                        for p in result.pairs}
            observed.update({tuple(sorted((r.agent_a, r.agent_b))): r.reason.value
                             for r in result.rejections})
            expected = {tuple(x["pair"]): x["reason"] for x in self.labels[scene.scene_id]}
            if observed != expected:
                wrong = sorted(k for k in expected.keys() | observed.keys()
                               if expected.get(k) != observed.get(k))
                raise BenchError(f"{scene.scene_id}: filter outcome differs from design for "
                                 f"{[(k, expected.get(k), observed.get(k)) for k in wrong[:3]]}")
            digest = hashlib.sha256(repr((
                [(p.pair.agent_a, p.pair.agent_b, p.skipped, p.record,
                  [(f.t, f.dt_collapse, f.flags.frame, str(f.flags.h_gt), str(f.flags.h_ml),
                    sorted(map(str, f.flags.h_pred)), sorted(map(str, f.flags.h_feas)))
                   for f in p.frame_records]) for p in result.pairs],
                [(r.agent_a, r.agent_b, r.reason.value, r.detail) for r in result.rejections],
            )).encode()).hexdigest()
        if first_pass:
            self.scene_digests[scene.scene_id] = digest
            if isinstance(result, Exception):
                self.failures[type(result).__name__] += 1
            else:
                for r in result.rejections:
                    self.fates[f"rejected:{r.reason.value}"] += 1
                for p in result.pairs:
                    self.fates[f"skipped:{p.skipped}" if p.skipped else "evaluated"] += 1
        elif self.scene_digests[scene.scene_id] != digest:
            raise BenchError(f"{scene.scene_id}: result differs between passes")

    def recheck(self, first: dict) -> None:
        """Untimed repeat of every RECHECK_EVERY-th scene, and of the fold and
        write, for a run whose first pass took all of its seconds: the results
        and report files must equal the timed pass's."""
        for scene, preds in self.scenes[::RECHECK_EVERY]:
            self.check_scene(scene, self.evaluate(scene, preds), first_pass=False)
        if self.fold_and_write(self.first_results)[0] != first["digest"]:
            raise BenchError("report files differ when written again")

    def fold_and_write(self, results, tracer=None) -> tuple[str, int]:
        """Aggregate the graded scenes and write the report; returns (sha256, bytes)."""
        graded = [r for r in results if not isinstance(r, Exception)]
        pair_records = [ev.record for r in graded for ev in r.pairs if ev.record]
        frame_records = [fr for r in graded for ev in r.pairs for fr in ev.frame_records]
        per_scene = [self.metrics.displacement_metrics(
            sorted(r.predictions.values(), key=lambda p: p.frame), r.scene)
            for r in graded if r.predictions]
        disp = None
        if per_scene:
            disp = self.ie.DisplacementMetrics(
                **{k: float(sum(getattr(d, k) for d in per_scene) / len(per_scene))
                   for k in ("ml_ade", "ml_fde", "joint_min_ade", "joint_min_fde")})
        dt = graded[0].scene.dt
        report = self.metrics.aggregate(pair_records, frame_records, bin_width=dt,
                                        displacement=disp)

        def write():
            out = self.out_dir
            out.mkdir(parents=True, exist_ok=True)
            p = self.pipeline
            p.write_pair_csv(out / "pairs.csv", pair_records)
            p.write_frames_csv(out / "frames.csv", frame_records)
            p.write_curves_csv(out / "curves.csv", report)
            (out / "report.json").write_text(
                json.dumps(report.to_dict(), indent=1, sort_keys=True), encoding="utf-8")
            accepted = [(r.scene.scene_id, ev.pair) for r in graded for ev in r.pairs]
            tls = [(r.scene.scene_id, ev.pair, ev.timeline)
                   for r in graded for ev in r.pairs if ev.timeline is not None]
            p.emit_histograms(accepted, tls, out, dt)
            p.write_filter_csv(out / "filter.csv", accepted)

        if tracer is not None:
            tracer.span("pipeline.write", write)
        else:
            write()
        h = hashlib.sha256()
        n_bytes = 0
        for path in sorted(self.out_dir.iterdir()):
            data = path.read_bytes()
            n_bytes += len(data)
            h.update(path.name.encode() + b"\0" + data)
        strict_json((self.out_dir / "report.json").read_text(encoding="utf-8"))
        return h.hexdigest(), n_bytes

    def run_pass(self, first: bool, tracer=None) -> dict:
        """Evaluate every scene, then fold and write; time each step in wall
        and in reference seconds (see machine.py)."""
        self.first_results = None  # a later pass repeats every scene, so recheck() is not needed
        t0 = time.perf_counter()
        latencies, scaled, results = [], [], []
        before = self.probe.sample()
        for scene, preds in self.scenes:
            s0 = time.perf_counter()
            result = self.evaluate(scene, preds, tracer)
            latencies.append(time.perf_counter() - s0)
            after = self.probe.sample()
            scaled.append(self.probe.scale(latencies[-1], before, after))
            before = after
            results.append(result)
        f0 = time.perf_counter()
        digest, n_bytes = self.fold_and_write(results, tracer)
        fold_s = time.perf_counter() - f0
        fold_scaled = self.probe.scale(fold_s, before, self.probe.sample())
        seconds = time.perf_counter() - t0
        for (scene, _), result in zip(self.scenes, results):
            self.check_scene(scene, result, first)
        if first:
            self.first_results = results
        graded = [r for r in results if not isinstance(r, Exception)]
        return {
            "seconds": seconds, "latencies": latencies, "scaled": scaled,
            "fold_s": fold_s, "fold_scaled": fold_scaled, "digest": digest, "bytes": n_bytes,
            "attempted": len(results), "graded": len(graded),
            "pairs": sum(1 for r in graded for ev in r.pairs if ev.record),
            "pair_frames": sum(len(ev.frame_records) for r in graded for ev in r.pairs),
        }


def print_fates(bench: Bench, first: dict) -> None:
    print(f"# pair fates ({bench.workload}, seed {bench.seed}, one pass over "
          f"{first['attempted']} scenes):")
    for key in sorted(bench.fates):
        print(f"#   {key:32s} {bench.fates[key]}")
    for key in sorted(bench.failures):
        print(f"#   {'scene failed:' + key:32s} {bench.failures[key]}")


def end_to_end(bench: Bench, setup: tuple[list[float], float],
               passes: list[dict]) -> dict[str, float]:
    """End-to-end metrics in reference seconds (see machine.py).

    Each scene's latency, and the fold-and-write time, is its median over
    the passes; throughput is one pass's work over the sum of those times.
    """
    n = passes[0]["attempted"]
    per_scene = [statistics.median(p["scaled"][i] for p in passes) for i in range(n)]
    work_s = sum(per_scene) + statistics.median(p["fold_scaled"] for p in passes)
    wall_s = (sum(statistics.median(p["latencies"][i] for p in passes) for i in range(n))
              + statistics.median(p["fold_s"] for p in passes))
    tail_p = tail_percentile(n)
    if tail_p is None:
        raise BenchError(f"a corpus of {n} scenes has no tail percentile")
    m = {
        "setup_s": setup[1],
        "scenes_per_s": n / work_s,
        "pairs_per_s": passes[0]["pairs"] / work_s,
        "pair_frames_per_s": passes[0]["pair_frames"] / work_s,
        "scene_p50_s": percentile(per_scene, 50.0),
        "scene_tail_s": percentile(per_scene, tail_p),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "scene_graded_ratio": passes[0]["graded"] / n,
    }
    print(f"# setup wall {', '.join(f'{w:.3f}' for w in setup[0])} s; median "
          f"{statistics.median(setup[0]):.3f} s wall, {setup[1]:.3f} s reference")
    print(f"# {len(passes)} passes, wall " + ", ".join(f"{p['seconds']:.3f}" for p in passes)
          + f" s; one pass of work {wall_s:.3f} s wall, {work_s:.3f} s reference "
          f"(the {1000 * REF_S:g} ms reference loop ran {wall_s / work_s:.2f}x slower)")
    print(f"# scene latency over {n} scenes, each the median of its passes: "
          f"p50 and tail p{tail_p:g}")
    print(f"# scene_fail_ratio {1.0 - passes[0]['graded'] / n:.4f} "
          f"({n - passes[0]['graded']} of {n} scenes not graded)")
    for name, value in m.items():
        print(f"{name:20s} {value:12.6g} {E2E_UNITS[name]}")
    return m


def run(args) -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    bench = Bench(args.workload, args.seed, work_dir)
    try:
        return _run(args, bench)
    except BenchError as e:
        print(f"output check failed: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(bench.attempted, 1), "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(args, bench: Bench) -> int:
    info = bench.generate()
    print(f"# corpus: {info['scenes']} scenes, {info['bytes']} bytes, seed {args.seed}")
    setup = bench.setup()

    if args.trace:
        from tracing import LAYER_METRICS, Tracer, layer_metrics

        load_tracer = Tracer()
        load_tracer.install()
        before = bench.probe.sample()
        l0 = time.perf_counter()
        try:
            bench.load()
        finally:
            load_tracer.uninstall()
        load_s = time.perf_counter() - l0
        load_tracer.scale(0, bench.probe.scale(load_s, before, bench.probe.sample()) / load_s)
        tracer = Tracer()
        untraced, traced = [], []
        start = time.perf_counter()
        while not (untraced and traced) or time.perf_counter() - start < args.seconds:
            if len(untraced) <= len(traced):
                untraced.append(bench.run_pass(first=not (untraced or traced)))
            else:
                first_span = len(tracer.spans)
                tracer.install()
                try:
                    traced.append(bench.run_pass(first=False, tracer=tracer))
                finally:
                    tracer.uninstall()
                p = traced[-1]
                tracer.scale(first_span, (sum(p["scaled"]) + p["fold_scaled"])
                             / (sum(p["latencies"]) + p["fold_s"]))
        passes = untraced + traced
        m = layer_metrics(tracer.by_name(), tracer.counts, len(traced))
        loads = layer_metrics(load_tracer.by_name(), load_tracer.counts, 1)
        m.update({k: v for k, v in loads.items() if k.startswith("sceneio.")})
        m["pipeline.write.bytes"] = traced[0]["bytes"]
        m["pipeline.scene_fail_ratio"] = 1.0 - traced[0]["graded"] / traced[0]["attempted"]
        untraced_s = statistics.mean(sum(p["scaled"]) + p["fold_scaled"] for p in untraced)
        traced_s = statistics.mean(sum(p["scaled"]) + p["fold_scaled"] for p in traced)
        m["trace.overhead_s"] = traced_s - untraced_s
        print_fates(bench, passes[0])
        rows = tracer.by_name()
        total_self = sum(r["self_s"] for r in rows.values())
        print(f"# traced pass {traced_s:.3f} s, untraced {untraced_s:.3f} s, overhead "
              f"{traced_s - untraced_s:+.3f} s ({100 * (traced_s / untraced_s - 1):+.1f}%); "
              f"{len(traced)} traced passes, {len(tracer.spans)} spans")
        print(f"# {'span (reference s per traced pass)':40s} {'calls':>8s} {'incl s':>9s} {'incl %':>7s} "
              f"{'self s':>9s} {'self %':>7s}")
        for name, r in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
            k = len(traced)
            print(f"# {name:40s} {r['calls'] / k:8.0f} {r['incl_s'] / k:9.4f} "
                  f"{100 * r['incl_s'] / total_self:6.1f}% {r['self_s'] / k:9.4f} "
                  f"{100 * r['self_s'] / total_self:6.1f}%")
        print(f"# {'per-layer metric':40s} {'value':>12s} unit   should move (workload)")
        for name, unit, _, moves, where in LAYER_METRICS:
            print(f"{name:42s} {m[name]:12.6g} {unit:6s} {moves} ({where})")
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.tsv")
        metrics = {name: {"value": m[name], "unit": unit} for name, unit, *_ in LAYER_METRICS}
    else:
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(bench.run_pass(first=not passes))
        if len(passes) == 1:
            bench.recheck(passes[0])
        print_fates(bench, passes[0])
        m = end_to_end(bench, setup, passes)
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in m.items()}

    digests = {p["digest"] for p in passes}
    if len(digests) != 1:
        raise BenchError(f"report files differ between passes: {sorted(digests)}")
    print(f"# output sha256 {passes[0]['digest']} (report.json, CSVs; {passes[0]['bytes']} bytes)")
    attempted = sum(p["attempted"] for p in passes)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*GRADING, "all"],
                    help="'all' runs every workload in turn, each in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "interaction_eval" / "__init__.py").is_file():
        print(f"no interaction_eval sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
                                ).returncode for w in GRADING]
        return max(codes)
    sys.path.insert(0, str(SRC))
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
