#!/usr/bin/env python3
"""Seeded closed-loop benchmark of tensor-preorder-lab.

    python3 bench/run.py --workload certify --seed 1 --seconds 50 --trace 0

One client, no threads: the next op starts only after the last one has
returned. Case i is built from the seed and i alone, so no input repeats
within a run. The timed phase lasts ``--seconds`` of wall time; every op's
output is checked against the reference code in ``oracle.py`` as it
returns. With ``--trace 0`` the last stdout line is the JSON result with the
end-to-end metrics, their times scaled to reference speed (``speed.py``); with ``--trace 1`` it holds the
per-layer metrics of a traced pass over a fixed list of ops, and the spans go
to ``.bench_out/``. See ``bench/README.md`` for what each number means.

The library is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import speed as host_speed
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
TMP_DIR = ROOT / ".bench_tmp"

SETUP_ROUNDS = 7
IMPORT_SAMPLES = 5
TAIL_LADDER = (90, 75, 50)
TAIL_BEYOND = 10

# Samples of the in-process reference (speed.py) taken before each set-up round.
REF_SETUP_SAMPLES = 8

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Spans reported as <name>.calls and <name>.self_s.
LAYER_SPANS = (
    "tensor.apply_product_map",
    "preorder.verify_restriction",
    "preorder.verify_degeneration",
    "preorder.interpolate",
    "matrix.rank",
    "matrix.solve_exact",
    "matrix.kron",
    "matrix.eval_eps",
    "hypergraph.build_structure",
    "obstructions.koszul_flatten",
    "obstructions.max_simple_koszul_rank",
    "asymptotic.lattice_construction",
    "asymptotic.lattice_obstruction",
    "asymptotic.disjoint_rank_bounds",
    "catalog.get",
    "catalog.put",
    "catalog.verify_entry",
    "jsonio.load_path",
    "jsonio.dump_path",
)

# Exact counters kept by the tracer's probes and scalar wrappers.
LAYER_COUNTS = {
    "scalars.qc_mul": "count",
    "scalars.qc_add": "count",
    "scalars.qc_div": "count",
    "scalars.eps_mul": "count",
    "scalars.eps_add": "count",
    "tensor.apply_product_map.nnz_in": "count",
    "tensor.apply_product_map.nnz_out": "count",
    "tensor.apply_product_map.terms": "count",
    "matrix.rank.max_side": "count",
    "hypergraph.build_structure.nnz_out": "count",
    "jsonio.load_path.bytes": "B",
    "jsonio.dump_path.bytes": "B",
}

# name -> (distinct-key set, spans whose calls are the attempts)
USEFUL_RATIOS = {
    "preorder.verify.useful_ratio": ("preorder.verify", ("preorder.verify_restriction", "preorder.verify_degeneration")),
    "obstructions.simple_rank.useful_ratio": ("obstructions.simple_rank", ("obstructions.max_simple_koszul_rank",)),
    "catalog.verify.useful_ratio": ("catalog.verify", ("catalog.verify_entry",)),
}


@dataclass
class Record:
    """One op: its case, its output or error, and its latency."""

    case: object
    output: object
    error: str | None
    seconds: float


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "TPL_CATALOG"}
    env["PYTHONPATH"] = str(SRC)
    return env


def child_import_seconds(module):
    """Seconds a fresh interpreter spends in ``import <module>``, timed inside it."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=120, check=True)
    return float(proc.stdout.strip())


def environment():
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "commit": commit,
        "nproc": os.cpu_count(),
        "child_PYTHONPATH": str(SRC),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
    }


def _text(x):
    if hasattr(x, "dims") and hasattr(x, "entries"):
        return tracer.tensor_text(x)
    if hasattr(x, "maps"):
        return tracer.cert_text(x)
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(_text(y) for y in x) + ")"
    if hasattr(x, "path"):
        return f"catalog:{Path(x.path).name}"
    return repr(x)


def case_text(case):
    """Canonical text of a case's inputs, without its index."""
    return f"{case.kind}:{_text(case.args)}:{_text(case.data)}"


def fingerprint(cases, workdir):
    """Digest of generated cases, to check that generation is deterministic."""
    body = "|".join(f"{c.index}:{case_text(c)}" for c in cases)
    return hashlib.sha256(body.replace(str(workdir), "<workdir>").encode()).hexdigest()


def set_up(workload, seed, tmp, speed):
    """Set up SETUP_ROUNDS times; return the last context, its first round of cases and the times.

    One round is a child interpreter's ``import tpl``, then in this process
    the workload's ``prepare`` (shared inputs, catalog) and the generation
    of one round of cases. Expected outputs are not computed here: the
    checks compute them after each op. Before each round, ``speed`` samples
    both references. The times are (child seconds, in-process seconds) per
    round, so that each part can be scaled by its own reference.
    """
    child_import_seconds("tpl")  # warm the file cache before timing
    times, prints = [], set()
    for i in range(SETUP_ROUNDS):
        for _ in range(REF_SETUP_SAMPLES):
            speed.sample("process")
        speed.sample("child")
        workdir = Path(tmp) / f"setup{i}"
        seconds = child_import_seconds("tpl")
        start = perf_counter()
        ctx = workload.prepare(seed, workdir)
        cases = [workload.case(ctx, j) for j in range(workload.round_ops)]
        times.append((seconds, perf_counter() - start))
        prints.add(fingerprint(cases, workdir))
    if len(prints) != 1:
        raise RuntimeError(f"set-up is not deterministic for seed {seed}")
    return ctx, cases, times


def run_op(workload, ctx, case):
    start = perf_counter()
    try:
        output, error = workload.run(ctx, case), None
    except Exception as exc:  # an op that raises is counted as failed, not fatal
        output, error = None, f"{type(exc).__name__}: {exc}"
    return Record(case, output, error, perf_counter() - start)


def check_record(workload, ctx, r):
    """Check one op's output; return its failure message, or None when it passed."""
    if r.error is None:
        try:
            workload.check(ctx, r.case, r.output)
            return None
        except Exception as exc:  # a check that cannot run counts as failed
            r.error = f"check: {type(exc).__name__}: {exc}"
    return f"op {r.case.index} ({r.case.kind}): {r.error}"


def check_records(workload, ctx, records):
    return [m for m in (check_record(workload, ctx, r) for r in records) if m]


def canon_line(workload, r):
    """Canonical JSON of one op's output: the unit of the output digest."""
    canon = None if r.error else workload.canon(r.case, r.output)
    return json.dumps([r.case.index, r.case.kind, canon], sort_keys=True, separators=(",", ":")).encode() + b"\n"


def output_digest(workload, records):
    h = hashlib.sha256()
    for r in records:
        h.update(canon_line(workload, r))
    return h.hexdigest()


def tail(latencies, percentile):
    """(value, percentile) at the workload's tail percentile.

    Each workload fixes the highest ladder percentile that keeps at least
    TAIL_BEYOND samples beyond it at its usual op count, so that two runs, or
    two commits, report the same percentile. A run with too few ops for it
    falls back to the next ladder percentile that qualifies.
    """
    n = len(latencies)
    for p in TAIL_LADDER:
        if p <= percentile and n * (100 - p) / 100 >= TAIL_BEYOND:
            return float(statistics.quantiles(latencies, n=100, method="inclusive")[p - 1]), p
    return max(latencies), 100


def peak_rss_mb():
    """Peak resident memory of this process or of its largest child, whichever is larger."""
    who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    return max(resource.getrusage(w).ru_maxrss for w in who) / 1024.0


def complete_rounds(n, size):
    """Number of ops in the complete rounds of ``size`` ops among ``n``; all ``n`` if under one round.

    Every round holds the workload's whole mix of op kinds, so metrics over
    complete rounds do not depend on where in a round the run stopped.
    """
    return n // size * size or n


def time_metrics(workload, lat, ok, writes):
    """The latency metrics of one run from per-op seconds ``lat``.

    ``ops_per_s`` (ok ops per second of op time), ``op_p50_s`` and
    ``op_tail_s`` cover the complete rounds of the run; ``write_p50_s``
    covers every op that wrote (None if none did). Also returns the tail
    percentile used and the number of ops in the complete rounds.
    """
    full = complete_rounds(len(lat), workload.round_ops)
    timed = lat[:full]
    tail_s, tail_p = tail(timed, workload.tail_percentile)
    written = [x for x, w in zip(lat, writes) if w]
    metrics = {
        "ops_per_s": sum(ok[:full]) / sum(timed),
        "op_p50_s": statistics.median(timed),
        "op_tail_s": tail_s,
        "write_p50_s": statistics.median(written) if written else None,
    }
    return metrics, tail_p, full


def end_to_end(workload, ctx, first, setup, speed, seconds, lines):
    """Run ops for ``seconds`` of wall time; ``first`` holds the cases built in set-up.

    Each later case is built just before its op, outside the op's time.
    After each op, ``speed`` samples the reference of the op's kind of work
    (in this process or in a child). Each output is checked, digested and
    dropped as soon as its op returns, so neither the checks nor a growing
    list of outputs weigh on later ops or on the peak memory. Every time is
    scaled to reference speed by its own kind's factor; the report gives
    the measured values beside the scaled ones.
    """
    lat, kinds, ok, writes, failures = [], [], [], [], []
    head, whole = hashlib.sha256(), hashlib.sha256()
    deadline = perf_counter() + seconds
    while not lat or perf_counter() < deadline:
        i = len(lat)
        r = run_op(workload, ctx, first[i] if i < len(first) else workload.case(ctx, i))
        kinds.append("child" if r.case.child else "process")
        speed.sample(kinds[-1])
        lat.append(r.seconds)
        writes.append(r.case.writes)
        failure = check_record(workload, ctx, r)
        ok.append(failure is None)
        if failure:
            failures.append(failure)
        line = canon_line(workload, r)
        whole.update(line)
        if i < workload.round_ops:
            head.update(line)
    n = len(lat)
    scale = {kind: speed.scale(kind) for kind in speed.samples}
    measured, tail_p, full = time_metrics(workload, lat, ok, writes)
    metrics, _p, _f = time_metrics(workload, [x * scale[k] for x, k in zip(lat, kinds)], ok, writes)
    measured["setup_s"] = statistics.median(a + b for a, b in setup)
    metrics["setup_s"] = statistics.median(a * scale["child"] + b * scale["process"] for a, b in setup)
    metrics["peak_rss_mb"] = peak_rss_mb()

    def both(k, unit):
        if metrics[k] is None:
            return "n/a  (no op of this workload writes a catalog entry)"
        return f"{metrics[k]:.6g} {unit}  (measured {measured[k]:.6g}"

    lines += [
        f"speed         {speed.report()}",
        f"ops_per_s     {both('ops_per_s', '1/s')}; {sum(ok[:full])} ok ops in {sum(lat[:full]):.3f} s "
        f"of op time, {full // workload.round_ops or 1} complete rounds of {workload.round_ops} ops)",
        f"op_p50_s      {both('op_p50_s', 's')}; n={full})",
        f"op_tail_s     {both('op_tail_s', 's')}; p{tail_p}, n={full}, "
        f"{sum(x > measured['op_tail_s'] for x in lat[:full])} beyond)",
        f"write_p50_s   {both('write_p50_s', 's')}" + (f"; n={sum(writes)})" if any(writes) else ""),
        f"failed_ratio  {len(failures) / n:.6g}  ({len(failures)}/{n}, every op of the run)",
        f"setup_s       {both('setup_s', 's')}; median of {SETUP_ROUNDS} set-ups)",
        f"peak_rss_mb   {metrics['peak_rss_mb']:.6g} MB  (this process or its largest child)",
        f"digest        sha256={head.hexdigest()} over ops 0..{min(n, workload.round_ops) - 1}",
        f"digest_all    sha256={whole.hexdigest()} over all {n} ops",
    ]
    return n, failures, {k: {"value": metrics[k], "unit": unit} for k, unit in END_TO_END.items()}


def run_pass(workload, ctx, cases, tr=None):
    """Run ``cases`` once, each op in a span of ``tr`` when given; return records and seconds."""
    if hasattr(workload, "reset"):
        workload.reset(ctx)
    ctx.state["tracer"] = tr
    records = []
    start = perf_counter()
    for case in cases:
        if tr is None:
            records.append(run_op(workload, ctx, case))
        else:
            with tr.op(case.index):
                records.append(run_op(workload, ctx, case))
    ctx.state["tracer"] = None
    return records, perf_counter() - start


def calls_by_part(tr, cases):
    """Report lines: the layer calls of the traced ops of each part of the mix."""
    part_of = {c.index: c.part for c in cases}
    calls = defaultdict(Counter)
    for name, _start, _end, _up, op in tr.spans:
        if name in LAYER_SPANS:
            calls[part_of[op]][name] += 1
    ops = Counter(part_of.values())
    return [f"calls in {part} ({ops[part]} ops): " + " ".join(f"{k}={v}" for k, v in sorted(calls[part].items()))
            for part in sorted(ops)]


def per_layer(workload, ctx, first, seed, lines):
    """Trace the first round of cases; time the second round untraced for the overhead ratio.

    Both rounds have the same mix of op kinds and sizes, and no input is run
    twice, so a cache keyed on inputs cannot serve the traced pass.
    """
    plain, plain_s = run_pass(workload, ctx, [workload.case(ctx, i) for i in range(len(first), 2 * len(first))])
    tr = tracer.Tracer()
    with tr:
        traced, traced_s = run_pass(workload, ctx, first, tr)
    failures = check_records(workload, ctx, plain) + check_records(workload, ctx, traced)
    attempted = len(plain) + len(traced)

    totals = tr.layer_totals()
    metrics = {}
    for name in LAYER_SPANS:
        t = totals.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (t["calls"], "count")
        metrics[f"{name}.self_s"] = (t["self_s"], "s")
    for name, unit in LAYER_COUNTS.items():
        metrics[name] = (tr.counts.get(name, 0), unit)
    for name, (key, spans) in USEFUL_RATIOS.items():
        calls = sum(totals.get(s, {"calls": 0})["calls"] for s in spans)
        metrics[name] = (len(tr.keys.get(key, ())) / calls if calls else 1.0, "ratio")
    metrics["cli.main.self_s"] = (totals.get("cli.main", {"self_s": 0.0})["self_s"], "s")
    metrics["cli.import_s"] = (statistics.median(child_import_seconds("tpl.cli") for _ in range(IMPORT_SAMPLES)), "s")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl"
    tr.write_jsonl(trace_path)
    lines += [
        f"traced pass   {len(first)} ops traced in {traced_s:.3f} s; the next {len(plain)} untraced in {plain_s:.3f} s",
        f"digest        sha256={output_digest(workload, traced)} over the traced ops",
        f"spans         {len(tr.spans)} written to {trace_path.relative_to(ROOT)}",
    ]
    lines += [f"{k:<44}{v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines += calls_by_part(tr, first)
    return attempted, failures, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run(workload, seed, seconds, trace):
    """Set up, measure and check one workload; return (result dict, report lines)."""
    TMP_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=TMP_DIR)
    try:
        speed = host_speed.Speed(child_env(), ROOT)
        ctx, first, setup = set_up(workload, seed, tmp, speed)
        run_op(workload, ctx, workload.case(ctx, -1))  # warm-up on a case of its own, untimed and unchecked
        env = environment()
        lines = [f"workload={workload.name} seed={seed} seconds={seconds} trace={int(trace)} "
                 + " ".join(f"{k}={v}" for k, v in env.items())]
        if trace:
            attempted, failures, metrics = per_layer(workload, ctx, first, seed, lines)
        else:
            attempted, failures, metrics = end_to_end(workload, ctx, first, setup, speed, seconds, lines)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass
    lines += [f"FAILED {msg}" for msg in failures[:20]]
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    summary = OUT_DIR / f"run-{workload.name}-seed{seed}-trace{int(trace)}.json"
    summary.write_text(json.dumps({"environment": env, "seed": seed, "seconds": seconds, "report": lines,
                                   "result": result}, indent=2) + "\n", encoding="utf-8")
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="certify or query")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tpl" / "__init__.py").is_file():
        print(f"bench: no library at {SRC / 'tpl'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.make(args.workload, ROOT, child_env())
    result, lines = run(workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
