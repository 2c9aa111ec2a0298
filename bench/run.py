"""LowDiff train -> crash -> restore benchmark driver.

    python3 bench/run.py --workload <name> --seed <n> [--seconds S] [--trace 0|1]
    python3 bench/run.py --all [--repeat N] [--out artifact.json]
    python3 bench/run.py --compare A.json B.json
    python3 bench/run.py --selftest

One workload run prints every metric by name with its unit, verifies the
restored state, and ends with one JSON line ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Exit status is non-zero when a
correctness check failed.  See bench/README.md.
"""

import os
import sys
import time

T_PROCESS_START = time.perf_counter()

# One training thread on one core; the program's persist threads/processes
# get the rest.  Must be set before numpy loads (and is inherited by the
# persist workers the program spawns).
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# bench/trace.py must not shadow the stdlib ``trace`` module: import the
# benchmark's files as the ``bench`` package from the checkout root.
sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
SCHEMA = "lowdiff-bench/1"
DEFAULT_SECONDS = 24
NOCKPT_ITERS = 40          # distributed.nockpt_iter_ms sample size
NOCKPT_WARMUP = 4          # first steps allocate scratch buffers
SETUP_SAMPLES = 3          # fresh processes behind setup_s (untraced runs)
ENV_MATCH_KEYS = ("cpu_count", "python", "numpy", "blas_threads",
                  "tmp_filesystem", "seconds", "seeds", "quick")


# One workload, one process ----------------------------------------------------------
def _child_command(workload: str, seed: int, quick: bool, *extra) -> list:
    """This script again, as a fresh process, on one workload."""
    return [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), *map(str, extra),
            *(["--quick"] if quick else [])]


def _cold_setup_probe(workload: str, seed: int, quick: bool) -> tuple:
    """``setup_s`` of one more fresh process: start -> ``attach()`` done,
    as ``(seconds, host-speed correction)``.

    Set-up is only cold once per process (a second trainer reuses the
    allocator's freed pages and builds 10x faster), so further samples
    need further processes."""
    done = subprocess.run(
        _child_command(workload, seed, quick, "--setup-only"),
        capture_output=True, text=True, check=True)
    seconds, factor = done.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(factor)


def run_workload(spec, seed: int, seconds: float, traced: bool,
                 import_s: float, quick: bool = False) -> dict:
    """Run cycles of ``spec`` for about ``seconds`` and summarise them."""
    from bench import cycle, hostspeed, layers, metrics
    from bench.trace import Tracer, layer_table

    scratch = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    wall_t0 = time.perf_counter()
    tracer = None
    nockpt_s: list[float] = []
    untraced_iter_ms = 0.0
    trains, restores, failures = [], [], []
    attempted = failed = 0
    compaction_row = None
    try:
        if traced:
            trainer = spec.trainer(seed)
            for _ in range(NOCKPT_WARMUP + NOCKPT_ITERS):
                start = time.perf_counter()
                trainer.step()
                nockpt_s.append(time.perf_counter() - start)
            del trainer, nockpt_s[:NOCKPT_WARMUP]
            reference = cycle.train_phase(
                spec, seed, os.path.join(scratch, "untraced"),
                iterations=max(16, spec.iterations // 4))
            untraced_iter_ms = statistics.median(reference.iter_s) * 1e3
            shutil.rmtree(reference.directory)
            del reference
            tracer = Tracer()
            layers.install(tracer)

        started = time.perf_counter()
        while True:
            cycle_t0 = time.perf_counter()
            index = len(trains)
            train = cycle.train_phase(
                spec, seed * 1000 + index,
                os.path.join(scratch, f"cycle-{index}"), tracer)
            rows = (cycle.restore_phase(spec, train, False, tracer)
                    + cycle.restore_phase(spec, train, True, tracer))
            records, lost, messages = cycle.check_records(spec, train)
            elapsed = time.perf_counter() - started
            cycle_s = time.perf_counter() - cycle_t0
            # Stop when one more cycle would land further from the target
            # than stopping now does.
            last = abs(elapsed + cycle_s - seconds) >= abs(elapsed - seconds)
            if last and traced and spec.compaction:
                compaction_row = cycle.compaction_step(spec, train, tracer)
                rows.append({**compaction_row["restore"], "kind": "compacted"})
            for row in rows:
                row["cycle"] = index
            bad = [r for r in rows if not r["ok"]]
            attempted += records + len(rows)
            failed += lost + len(bad)
            failures += messages + [f"restore failed verification: {r}"
                                    for r in bad]
            shutil.rmtree(train.directory)
            train.live_model = train.live_optimizer = None
            trains.append(train)
            restores += rows
            if last:
                break

        # Read before the set-up probes run: they are children too, and
        # RUSAGE_CHILDREN would report their footprint as the program's.
        peak_rss_mb = metrics.peak_rss_mb()
        setup_samples = [(import_s + trains[0].setup_s,
                          trains[0].correction)]
        while not traced and len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(_cold_setup_probe(
                spec.name, seed + len(setup_samples), quick))

        e2e = metrics.summarise_e2e(spec, trains, restores, setup_samples,
                                    peak_rss_mb)
        result = {
            "workload": spec.name, "seed": seed, "seconds": seconds,
            "traced": traced, "valid": failed == 0,
            "ops_attempted": attempted, "ops_failed": failed,
            "failures": failures[:20], "cycles": len(trains),
            "host_speed": {   # cycle after cycle
                "reference_probe_s": hostspeed.REFERENCE_S,
                "probe_s": [[round(p, 5) for p in t.probe_s] for t in trains],
                "correction": [t.correction for t in trains],
            },
            "iterations": {   # cycle after cycle, spec.iterations rows each
                "columns": ["wall_ms", "stall_ms"],
                "rows": [[round(w * 1e3, 2), round(s * 1e3, 2)]
                         for t in trains
                         for w, s in zip(t.iter_s, t.stall_s)],
            },
            "restores": {
                "columns": ["cycle", "kind", "seconds", "step", "diffs_loaded",
                            "merge_ops", "merge_depth", "max_rel_diff", "ok"],
                "rows": [[r["cycle"], r["kind"], round(r["seconds"], 6),
                          r["step"], r["diffs_loaded"], r["merge_ops"],
                          r["merge_depth"], r["max_rel_diff"], r["ok"]]
                         for r in restores],
            },
        }
        if traced:
            result["metrics"] = layers.derive(
                spec, tracer.spans, trains, restores, nockpt_s,
                untraced_iter_ms, compaction_row)
            # Kept for reference only: end-to-end numbers are never taken
            # from the traced run.
            result["end_to_end_while_traced"] = e2e
            result["layers"] = [
                {**row, "total_s": round(row["total_s"], 6),
                 "self_s": round(row["self_s"], 6)}
                for row in layer_table(tracer.spans)]
            trace_file = os.path.join(
                OUT_DIR, f"trace-{spec.name}-seed{seed}.json")
            tracer.write_chrome_trace(trace_file)
            result["trace_file"] = os.path.relpath(trace_file, ROOT)
        else:
            result["metrics"] = e2e
        result["wall_s"] = time.perf_counter() - wall_t0
        return result
    finally:
        if tracer is not None:
            tracer.unwrap_all()
        shutil.rmtree(scratch, ignore_errors=True)


def print_result(result: dict) -> None:
    mode = "traced, per-layer" if result["traced"] else "untraced, end-to-end"
    print(f"== {result['workload']} seed={result['seed']} ({mode}): "
          f"{result['cycles']} cycle(s), {result['wall_s']:.1f} s wall, "
          f"ops {result['ops_attempted'] - result['ops_failed']}"
          f"/{result['ops_attempted']} ok"
          f"{'' if result['valid'] else '  ** INVALID **'}")
    for name, entry in result["metrics"].items():
        notes = []
        if "n" in entry:
            notes.append(f"n={entry['n']}")
        if "uncorrected" in entry:
            notes.append(f"uncorrected {entry['uncorrected']:.6g}")
        if "percentile" in entry:
            notes.append(f"p{entry['percentile']:g}, "
                         f"{entry['samples_beyond']} samples beyond")
        print(f"  {name:<52} {entry['value']:>16.6g} {entry['unit']:<6}"
              f" {' '.join(notes)}")
    for message in result["failures"]:
        print(f"  FAILED: {message}")


def driver_line(result: dict) -> str:
    """The last stdout line of a workload run (the driver's contract)."""
    return json.dumps({
        "correct": result["valid"],
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in result["metrics"].items()},
    })


def main_workload(args) -> int:
    import numpy  # noqa: F401  (timed: part of setup_s)
    from bench.workloads import WORKLOADS
    import_s = time.perf_counter() - T_PROCESS_START
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    if args.quick:
        spec = spec.quick()
    if spec.cores:
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:spec.cores])
    if args.setup_only:
        from bench import cycle
        directory = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
        try:
            train = cycle.train_phase(spec, args.seed, directory, iterations=0)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        print(import_s + train.setup_s, train.correction)
        return 0
    result = run_workload(spec, args.seed, args.seconds, bool(args.trace),
                          import_s, args.quick)
    result["quick"] = args.quick
    result["params"] = spec.params()
    print_result(result)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle)
    print(driver_line(result))
    return 0 if result["valid"] else 1


# Artifacts: --all / --repeat --------------------------------------------------------
def _filesystem_of(path: str) -> str:
    best = ("", "unknown")
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                device, mount, fstype = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best[0]):
                    best = (mount, f"{fstype} on {device}")
    except OSError:
        pass
    return best[1]


def environment(seeds: list[int], seconds: float, quick: bool) -> dict:
    import numpy
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "platform": platform.platform(), "git_sha": sha,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "tmp_filesystem": _filesystem_of(OUT_DIR),
        "flush_policy": "LocalDiskBackend: tmp file + fsync + rename for "
                        "every blob and every manifest commit",
        "load_shape": "closed loop, one generator process, one training "
                      "thread",
        "seeds": seeds, "seconds": seconds, "quick": quick,
    }


def _run_child(workload: str, seed: int, seconds: float, trace: int,
               quick: bool) -> dict:
    out = os.path.join(OUT_DIR, f"result-{os.getpid()}.json")
    status = subprocess.run(_child_command(
        workload, seed, quick, "--seconds", seconds, "--trace", trace,
        "--out", out)).returncode
    try:
        with open(out) as handle:
            result = json.load(handle)
        os.unlink(out)
    except OSError:
        raise SystemExit(f"{workload} (trace={trace}) produced no result; "
                         f"exit status {status}")
    return result


def _quartiles(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def summarise_runs(runs: list[dict]) -> dict:
    """metric -> median + quartiles over repeat runs."""
    summary = {}
    for name, entry in runs[0]["metrics"].items():
        summary[name] = {"unit": entry["unit"], **_quartiles(
            [run["metrics"][name]["value"] for run in runs])}
    return summary


def main_all(args) -> int:
    from bench.workloads import WORKLOADS
    seeds = [args.seed + k for k in range(args.repeat)]
    artifact = {"schema": SCHEMA,
                "env": environment(seeds, args.seconds, args.quick),
                "workloads": {}}
    walls = {}
    ok = True
    for name, spec in WORKLOADS.items():
        sections = {}
        for section, trace in (("untraced", 0), ("traced", 1)):
            runs = [_run_child(name, seed, args.seconds, trace, args.quick)
                    for seed in seeds]
            ok &= all(run["valid"] for run in runs)
            sections[section] = {"summary": summarise_runs(runs), "runs": runs}
            walls[f"{name}.{section}"] = sum(run["wall_s"] for run in runs)
        artifact["workloads"][name] = {
            "why": spec.why, "params": runs[0]["params"], **sections}
    artifact["env"]["wall_s"] = walls
    out = args.out or os.path.join(OUT_DIR, "artifact.json")
    with open(out, "w") as handle:
        json.dump(artifact, handle)
    print(f"artifact written to {out}")
    return 0 if ok else 1


# --compare ---------------------------------------------------------------------------
def compare_rows(parent: dict, change: dict, bounds: dict) -> list[dict]:
    """One verdict per (end-to-end metric, workload) row.

    ``worse_by`` is the change of the median in the *worse* direction as a
    share of the parent's median.  A row whose run-to-run spread (IQR /
    median, either side, >= 3 runs) is wider than its bound is
    **unresolved** unless every run of one side beats every run of the
    other."""
    rows = []
    for workload, sections in parent["workloads"].items():
        theirs = change["workloads"][workload]["untraced"]["summary"]
        for name, a in sections["untraced"]["summary"].items():
            b = theirs[name]
            better, bound = bounds[name]
            sign = 1.0 if better == "lower" else -1.0
            worse_by = sign * (b["median"] - a["median"]) / a["median"]
            spreads = [(s["q3"] - s["q1"]) / s["median"]
                       for s in (a, b) if s["n"] >= 3]
            spread = max(spreads) if spreads else None
            all_better = (max(sign * v for v in b["values"])
                          < min(sign * v for v in a["values"]))
            all_worse = (min(sign * v for v in b["values"])
                         > max(sign * v for v in a["values"]))
            if spread is not None and spread > bound \
                    and not (all_better or all_worse):
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            elif worse_by < -bound:
                verdict = "better"
            else:
                verdict = "unchanged"
            rows.append({"workload": workload, "metric": name,
                         "unit": a["unit"], "parent": a["median"],
                         "change": b["median"], "worse_by": worse_by,
                         "bound": bound, "spread": spread,
                         "verdict": verdict})
    return rows


def main_compare(args) -> int:
    artifacts = []
    for path in args.compare:
        with open(path) as handle:
            artifacts.append(json.load(handle))
    parent, change = artifacts
    for path, artifact in zip(args.compare, artifacts):
        if artifact.get("schema") != SCHEMA:
            print(f"refusing: {path} is not a {SCHEMA} artifact")
            return 2
        if artifact["env"]["quick"]:
            print(f"refusing: {path} is a quick-mode artifact")
            return 2
    mismatched = [key for key in ENV_MATCH_KEYS
                  if parent["env"].get(key) != change["env"].get(key)]
    if mismatched:
        for key in mismatched:
            print(f"refusing: env.{key} differs: {parent['env'].get(key)!r} "
                  f"vs {change['env'].get(key)!r}")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    bounds = {m["name"]: (m["better"], m["bound"])
              for m in declared["end_to_end"]}
    rows = compare_rows(parent, change, bounds)
    print(f"{'workload':<22} {'metric':<20} {'parent':>12} {'change':>12} "
          f"{'worse by':>9} {'bound':>6} {'spread':>7}  verdict")
    for row in rows:
        spread = "n/a" if row["spread"] is None else f"{row['spread']:.1%}"
        print(f"{row['workload']:<22} {row['metric']:<20} "
              f"{row['parent']:>12.5g} {row['change']:>12.5g} "
              f"{row['worse_by']:>+9.1%} {row['bound']:>6.1%} {spread:>7}  "
              f"{row['verdict']}")
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("better", "unchanged", "worse", "unresolved")}
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["worse"] else 0


# --selftest --------------------------------------------------------------------------
def _driver_output(workload: str, trace: int) -> dict:
    """Run one quick workload the way the driver does; parse its last line
    rejecting duplicate metric names."""
    done = subprocess.run(
        _child_command(workload, 7, True, "--seconds", 1, "--trace", trace),
        capture_output=True, text=True)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{done.returncode}:\n{done.stdout}{done.stderr}")

    def no_duplicates(pairs):
        keys = [key for key, _ in pairs]
        if len(keys) != len(set(keys)):
            raise AssertionError(f"duplicate keys in output: {keys}")
        return dict(pairs)

    return json.loads(done.stdout.strip().splitlines()[-1],
                      object_pairs_hook=no_duplicates)


def _corruption_is_caught() -> None:
    """A flipped byte in a mid-chain diff blob must fail the checks."""
    from bench import cycle
    from bench.workloads import WORKLOADS
    spec = WORKLOADS["small_sync"].quick()
    directory = os.path.join(OUT_DIR, f"selftest-{os.getpid()}")
    try:
        train = cycle.train_phase(spec, 7, directory)
        victim = os.path.join(directory, "diff",
                              f"{train.crash_step - 2:010d}_"
                              f"{train.crash_step - 2:010d}.ckpt")
        with open(victim, "r+b") as handle:
            handle.seek(os.path.getsize(victim) // 2)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0x40]))
        _, lost, _ = cycle.check_records(spec, train)
        rows = (cycle.restore_phase(spec, train, False)
                + cycle.restore_phase(spec, train, True))
        if lost == 0 or any(row["ok"] for row in rows):
            raise AssertionError(
                "corrupted diff blob was not caught: "
                f"records lost={lost}, restores ok="
                f"{[row['ok'] for row in rows]}")
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _require(condition, message) -> None:
    if not condition:
        raise AssertionError(message)


def main_selftest() -> int:
    from bench import metrics
    from bench.workloads import WORKLOADS
    started = time.perf_counter()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    _require([(w["name"], w["why"]) for w in declared["workloads"]]
             == [(w.name, w.why) for w in WORKLOADS.values()],
             "BENCHMARK.json workloads differ from bench/workloads.py")
    _require([(m["name"], m["unit"], m["better"], m["bound"])
              for m in declared["end_to_end"]] == metrics.END_TO_END,
             "BENCHMARK.json end_to_end differs from bench/metrics.py")
    _require([(m["name"], m["unit"], m["better"])
              for m in declared["per_layer"]] == metrics.PER_LAYER,
             "BENCHMARK.json per_layer differs from bench/metrics.py")
    for name in WORKLOADS:
        for trace, units in ((0, metrics.E2E_UNITS), (1, metrics.LAYER_UNITS)):
            output = _driver_output(name, trace)
            _require(set(output) == {"correct", "attempted", "failed",
                                     "metrics"}, sorted(output))
            _require(output["correct"] and output["failed"] == 0, output)
            emitted = {k: v["unit"] for k, v in output["metrics"].items()}
            _require(emitted == units,
                     f"{name} trace={trace}: missing "
                     f"{sorted(set(units) - set(emitted))}, extra "
                     f"{sorted(set(emitted) - set(units))}, or a unit differs")
            print(f"ok  {name} trace={trace}: {len(emitted)} metrics, "
                  f"{output['attempted']} ops")
    _corruption_is_caught()
    print("ok  corrupted diff blob fails the correctness check")
    print(f"selftest passed in {time.perf_counter() - started:.1f} s")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measure for about this long (whole cycles)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="small sizes (selftest); never comparable")
    parser.add_argument("--out", help="write the detailed result/artifact")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # the cold set-up probe
    parser.add_argument("--all", action="store_true",
                        help="all workloads, untraced then traced, into one "
                             "artifact")
    parser.add_argument("--repeat", type=int, default=1,
                        help="with --all: N sets on seeds seed..seed+N-1")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.compare:
        return main_compare(args)
    if args.selftest:
        return main_selftest()
    if args.all:
        return main_all(args)
    if not args.workload:
        parser.error("one of --workload, --all, --compare, --selftest")
    return main_workload(args)


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)   # unwind, so the clean-up below runs


def stop_child_processes() -> None:
    """Stop and wait for every process this one started, on any way out.

    Persist and recovery workers are joined by the program itself; what is
    left is (a) workers of an engine that died mid-run and (b) the
    ``multiprocessing`` resource tracker, which shared memory starts
    behind the program's back and which otherwise only notices that its
    parent is gone *after* the parent has exited."""
    import multiprocessing
    from multiprocessing import resource_tracker
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    # Dropped engines release their semaphores and segments now, while the
    # tracker still runs, instead of at interpreter exit (which would
    # start a new tracker).
    gc.collect()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    fd, pid = getattr(tracker, "_fd", None), getattr(tracker, "_pid", None)
    if fd is not None:
        # Closing the write end of its pipe is the tracker's stop signal.
        tracker._fd = tracker._pid = None
        os.close(fd)
        if pid is not None:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


if __name__ == "__main__":
    import signal
    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        status = main()
        sys.stdout.flush()
    finally:
        stop_child_processes()
    sys.exit(status)
