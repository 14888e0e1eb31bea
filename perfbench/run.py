"""steplab benchmark: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload {train,sample,bound} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports steplab from that checkout's
``src`` and exits non-zero without a result when there is none.  The metric
names and units come from the checkout's BENCHMARK.json.

``--trace 0`` first measures set-up in SETUP_PROCS fresh processes of this
script: from spawning one to the moment it would start its first timed
operation (interpreter start, import, building the workload's schedules,
denoisers, teacher and heuristic grids, one checked warm-up operation).  The
run then sets itself up the same way and runs the workload's operation back
to back for S seconds, checking every output.  It ends with a short fixed
tail of each other workload's operation, so every end-to-end metric is
measured on every workload; the workload's own metric comes from its
S-second loop.

``--trace 1`` runs a fixed number of the workload's operations untraced,
then the same number traced: steplab's public call sites are wrapped
(spans.py) and every call becomes a span.  A traced set-up and one traced
operation of each other kind follow.  It prints the per-layer metrics, the
tracing overhead on the workload's own metric, and writes every span to
``.bench_out/``.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  The line before it carries the machine facts and run details.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import bootstrap

# Imported by main() once bootstrap.prepare() has pinned the BLAS threads.
counts = reference = spans = workloads = None

SETUP_PROCS = 3
SETUP_TIMEOUT_S = 60
# Operations in each tail, after one warm-up operation.
TAIL_OPS = {"train": 9, "sample": 8, "bound": 40}
# Seconds one operation takes where the reference kernel takes REFERENCE_S.
# The traced run's operation count is --seconds / 2 over this, so it is
# fixed by the arguments and a faster program traces the same operations.
NOMINAL_OP_S = {"train": 1.6, "sample": 1.3, "bound": 0.16}
MAX_ERRORS = 5


class Tally:
    """Operations attempted and failed over the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, outcomes):
        for out in outcomes:
            self.attempted += out.attempted
            self.failed += out.failed
            if out.errors and len(self.errors) < MAX_ERRORS:
                self.errors.append(out.errors)


def run_ops(kind, tally, first=0, seconds=None, count=None, tracer=None,
            label=None, kernel=True):
    """Closed loop: operation i + 1 starts when operation i is checked."""
    outcomes = []
    end = None if seconds is None else time.perf_counter() + seconds
    i = first
    clock = reference.Clock(kernel)
    while True:
        if tracer is None:
            out = kind.do(i, clock)
        else:
            tracer.op = f"{label}:{i}"
            out = tracer.call(f"bench.{kind.name}", kind.do, i, clock)
            tracer.op = None
        kind.check(i, out)
        out.raw = None  # outputs held across the loop would slow every GC
        outcomes.append(out)
        i += 1
        if count is not None and len(outcomes) >= count:
            break
        if end is not None and time.perf_counter() >= end:
            break
    tally.add(outcomes)
    return outcomes


def set_up(kind, tally):
    """Build, then one checked warm-up operation (operation 0)."""
    kind.build()
    run_ops(kind, tally, count=1, kernel=False)


def setup_only(args, workdir):
    """The set-up process: set up, then print the monotonic clock's reading
    (system-wide, so the parent can compare it) and the warm-up's tally."""
    kind = workloads.KINDS[args.workload](workdir, args.seed)
    tally = Tally()
    try:
        set_up(kind, tally)
        ready = time.monotonic()
    finally:
        kind.close()
    print(json.dumps({"ready": ready, "attempted": tally.attempted,
                      "failed": tally.failed, "errors": tally.errors}))


def measure_setup(args, tally):
    """The set-up times of SETUP_PROCS fresh processes, raw and normalized
    by the reference kernel run just before each is spawned and just after
    it ends."""
    raws, norms = [], []
    argv = [sys.executable, os.path.abspath(__file__), "--workload",
            args.workload, "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--setup-only"]
    for _ in range(SETUP_PROCS):
        before = reference.kernel_seconds()
        start = time.monotonic()
        proc = subprocess.run(argv, cwd=bootstrap.ROOT, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S)
        after = reference.kernel_seconds()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        tally.add([workloads.Outcome(attempted=child["attempted"],
                                     failed=child["failed"],
                                     errors=child["errors"])])
        seconds = child["ready"] - start
        raws.append(seconds)
        norms.append(reference.normalize(seconds, before, after))
    return raws, norms


def tails(main, workdir, seed, tally, tracer=None):
    """Each other workload kind: build, one warm-up, TAIL_OPS operations.

    Traced, a tail is one operation without warm-up, and its build is not
    counted under any operation.  Returns the outcomes per kind.
    """
    results = {}
    for name, cls in workloads.KINDS.items():
        if name == main.name:
            continue
        kind = cls(workdir, seed)
        try:
            if tracer is None:
                set_up(kind, tally)
                outs = run_ops(kind, tally, count=TAIL_OPS[name])
            else:
                kind.build()
                tracer.map_roles.update(kind.map_roles)
                outs = run_ops(kind, tally, count=1, tracer=tracer,
                               label=f"tail-{name}")
        finally:
            kind.close()
        results[kind] = outs
    return results


def _slowdown(better, untraced, traced):
    """Traced over untraced time per operation, minus one."""
    if better == "lower":
        return traced / untraced - 1.0
    return untraced / traced - 1.0


def load_metrics():
    """BENCHMARK.json's end-to-end and per-layer metrics, by name."""
    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ({m["name"]: m for m in bench["end_to_end"]},
            {m["name"]: m for m in bench["per_layer"]})


def run(args, workdir):
    end_to_end, per_layer = load_metrics()
    main = workloads.KINDS[args.workload](workdir, args.seed)
    tally = Tally()
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}
    try:
        if args.trace:
            set_up(main, tally)
            values = traced_run(args, main, tally, workdir, info,
                                end_to_end[main.metric]["better"])
            wanted = per_layer
        else:
            setup_raw, setup_norm = measure_setup(args, tally)
            set_up(main, tally)
            results = {main: run_ops(main, tally, seconds=args.seconds)}
            results.update(tails(main, workdir, args.seed, tally))
            values = {"setup_s": statistics.median(setup_norm),
                      "peak_rss_mb": resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            raw = {"setup_s": statistics.median(setup_raw)}
            for kind, outs in results.items():
                values[kind.metric] = workloads.median_value(kind, outs)
                raw[kind.metric] = workloads.median_value(kind, outs, False)
            info["samples"] = {k.metric: len(o) for k, o in results.items()}
            info["per_op"] = {k.metric: workloads.per_op_values(k, o)
                              for k, o in results.items()}
            info["per_op"]["setup_s"] = setup_norm
            info["raw"] = raw
            wanted = end_to_end
    finally:
        main.close()
    info["errors"] = tally.errors
    metrics = {name: {"value": values[name], "unit": m["unit"]}
               for name, m in wanted.items()}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return result, info


def traced_run(args, main, tally, workdir, info, better):
    """The per-layer metrics, per operation of the workload's own traced
    operations.  A metric those operations leave at 0 (a layer the workload
    never reaches) is taken from the traced set-up instead, or else from the
    first traced tail operation that reaches it; ``info["from"]`` names
    where each such metric came from."""
    ops = max(1, round(args.seconds / 2.0 / NOMINAL_OP_S[main.name]))
    untraced = run_ops(main, tally, count=ops)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.op = "setup:0"
        tracer.call("bench.setup", main.build)
        tracer.op = None
        tracer.map_roles.update(main.map_roles)
        traced = run_ops(main, tally, first=ops, count=ops, tracer=tracer,
                         label=main.name)
        tail_outs = tails(main, workdir, args.seed, tally, tracer)
    finally:
        tracer.uninstall()
    groups = [(main.name, sum(o.attempted for o in traced)), ("setup", 1)]
    groups += [(f"tail-{k.name}", sum(o.attempted for o in outs))
               for k, outs in tail_outs.items()]
    layer, source, by_group = {}, {}, {}
    for label, n in groups:
        values, by_name, by_layer = spans.per_layer(tracer.spans,
                                                    label + ":", n)
        by_group[label] = {"ops": n, "per_layer": values,
                           "layer_self_s_per_op": {
                               k: v / n for k, v in by_layer.items()},
                           "spans": by_name}
        for name, value in values.items():
            if name not in layer and value:
                layer[name] = value
                source[name] = label
    for name in values:
        layer.setdefault(name, 0.0)
    layer.update(counts.pair_grads_counts())
    overhead = {}
    for normalized in (True, False):
        before = workloads.median_value(main, untraced, normalized)
        after = workloads.median_value(main, traced, normalized)
        overhead["normalized" if normalized else "raw"] = {
            "untraced": before, "traced": after,
            "slowdown": _slowdown(better, before, after)}
    overhead["ops"] = [len(untraced), len(traced)]
    info["overhead"] = {main.metric: overhead}
    info["from"] = {name: label for name, label in source.items()
                    if label != main.name}
    info["layer_self_s_per_op"] = by_group[main.name]["layer_self_s_per_op"]
    stem = os.path.join(bootstrap.OUT,
                        f"trace-{args.workload}-seed{args.seed}")
    tracer.write(stem + ".spans.jsonl")
    summary = dict(info, per_layer=layer, groups=by_group,
                   missing_sites=tracer.missing)
    with open(stem + ".summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    info["span_file"] = os.path.relpath(stem + ".spans.jsonl",
                                        bootstrap.ROOT)
    return layer


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "sample", "bound"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        loadavg = bootstrap.prepare()
    except bootstrap.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    global counts, reference, spans, workloads
    import counts
    import reference
    import spans
    import workloads

    workdir = os.path.join(bootstrap.OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.setup_only:
            setup_only(args, workdir)
            return 0
        result, info = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info["machine"] = bootstrap.machine_facts(loadavg)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
