"""qnet benchmark: fresh-process CLI workloads in a closed loop.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 20 --trace 0

One client issues ``python -m qnet ...`` commands one at a time, each in a
fresh process, and waits for each report, as a planner does.  Every command
is timed, its peak RSS read with ``os.wait4``, and its output checked.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
loop, then a traced in-process pass and import/algebra probes, and prints
the per-layer metrics.  The last stdout line is the JSON result; a summary
goes to stderr.  Metric names, units and the workloads are defined in
BENCHMARK.json; see perfbench/README.md for what each one means.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3
CMD_TIMEOUT_S = 60.0
# Stop issuing commands after this long, so that even a much slower
# program ends a run well within three minutes.
RUN_DEADLINE_S = 120.0
# Nominal seconds one pass of each workload takes on the reference machine
# (2-core Xeon, Python 3.11, numpy 2.4); --seconds buys whole passes, so
# every run of a workload at one --seconds executes the same commands.
PASS_SECONDS = {"interactive": 19, "bulk-sp": 18, "kernel-search": 18, "montecarlo": 15}


class Outcome:
    __slots__ = ("cmd", "code", "out", "wall", "rss_kb")

    def __init__(self, cmd, code, out, wall, rss_kb):
        self.cmd, self.code, self.out, self.wall, self.rss_kb = cmd, code, out, wall, rss_kb


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_command(cmd, doc_path, threads, env, errfile) -> Outcome:
    """Run one command in a fresh process; wall time includes start-up."""
    env = dict(env, QNET_THREADS=str(threads))
    argv = [sys.executable, "-m", "qnet", *cmd.argv(doc_path)]
    with open(errfile, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(CMD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            # Popen must not signal or wait for the reaped pid again.
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
    return Outcome(cmd, proc.returncode, out, wall, usage.ru_maxrss)


def _environment() -> str:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"nproc {_nproc()}, cpu {cpu}")


def _order_stat(walls: list[float], k: int) -> float:
    """k-th smallest wall time; a failed command (inf) reads as the slowest seen."""
    value = sorted(walls)[k]
    return value if math.isfinite(value) else max((w for w in walls if math.isfinite(w)), default=0.0)


def _p50(walls):
    return _order_stat(walls, (len(walls) - 1) // 2) if walls else 0.0


def _tail_rank(n: int) -> int:
    """Rank of the highest percentile with min(10, n/10) samples (at least 1) beyond it."""
    return max(0, n - 1 - max(1, min(10, n // 10)))


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, limit: int | None = None):
        import workloads

        self.name, self.seed = workload, seed
        self.passes = max(1, int(seconds // PASS_SECONDS[workload]))
        self.limit = limit
        self.build = workloads.build
        self.nproc = _nproc()
        self.env = _child_env()
        self.work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
        self.w = None
        self.checker = None
        self.setups: list[float] = []
        self.outcomes: list[Outcome] = []

    def doc_path(self, cmd):
        return os.path.join(self.work, cmd.doc + ".json") if cmd.doc else None

    def _run(self, cmd, threads) -> Outcome:
        out = run_command(cmd, self.doc_path(cmd), min(threads, self.nproc), self.env,
                          os.path.join(self.work, "stderr.txt"))
        if out.code == 0:
            self.checker.check(cmd, out.out)
        return out

    def setup(self) -> None:
        """Generate and write the documents, then warm up each subcommand once.

        The warm-up runs each subcommand's first command at the other thread
        count, so its report is also compared with the measured repeats.
        """
        from checks import Checker

        start = time.perf_counter()
        self.w = self.build(self.name, self.seed)
        if self.limit is not None:
            self.w.commands = self.w.commands[: self.limit]
        os.makedirs(self.work, exist_ok=True)
        docs = {}
        for name in self.w.docs:
            docs[name] = self.w.doc_bytes(name)
            with open(os.path.join(self.work, name + ".json"), "wb") as fh:
                fh.write(docs[name])
        if self.checker is None:
            self.checker = Checker(docs)
        seen = set()
        for cmd in self.w.commands:
            if cmd.sub not in seen:
                seen.add(cmd.sub)
                self._run(cmd, 3 - cmd.threads)
        self.setups.append(time.perf_counter() - start)

    def measure(self) -> None:
        start = time.perf_counter()
        for _ in range(self.passes):
            for cmd in self.w.commands:
                if time.perf_counter() - start > RUN_DEADLINE_S:
                    return
                self.outcomes.append(self._run(cmd, cmd.threads))

    # --- metrics -----------------------------------------------------------

    def loop_metrics(self) -> dict:
        """Metrics of the measured fresh-process loop, by BENCHMARK.json name."""
        done = [o for o in self.outcomes if o.code == 0]
        walls = [o.wall if o.code == 0 else math.inf for o in self.outcomes]
        doc_runs = [o for o in done if o.cmd.doc]
        doc_wall = sum(o.wall for o in doc_runs)
        m = {
            "setup_s": statistics.median(self.setups),
            "cmds_per_s": len(self.outcomes) / sum(o.wall for o in self.outcomes),
            "cmd_p50_ms": _p50(walls) * 1e3,
            "cmd_tail_ms": _order_stat(walls, _tail_rank(len(walls))) * 1e3,
            "channels_per_s": sum(o.cmd.channels for o in doc_runs) / doc_wall if doc_wall else 0.0,
            "peak_rss_mb": max(o.rss_kb for o in self.outcomes) / 1024,
            "completed_frac": len(done) / len(self.outcomes),
            "failed_frac": 1 - len(done) / len(self.outcomes),
            "check.unchecked": self.checker.unchecked,
        }
        for sub in ("reduce", "route", "simulate", "grid"):
            m[f"{sub}_p50_ms"] = _p50(
                [w for w, o in zip(walls, self.outcomes) if o.cmd.sub == sub]) * 1e3
        for t in (1, 2):
            runs = [o for o in done if o.cmd.sub == "simulate" and o.cmd.threads == t]
            wall = sum(o.wall for o in runs)
            m[f"leaf_samples_per_s.t{t}"] = (
                sum(o.cmd.samples * o.cmd.leaves for o in runs) / wall if wall else 0.0)
        return m

    def traced(self) -> tuple[dict, list[str]]:
        import tracing

        cmds = self.w.commands
        rec = tracing.Recorder()
        untraced, traced = tracing.inprocess_pass(cmds, self.doc_path, self.nproc, rec)
        m = tracing.layer_metrics(rec, untraced, traced, cmds)
        m.update(tracing.import_probes(sys.executable, self.env, ROOT))
        m.update(tracing.algebra_probe())
        fresh = [o.wall for o in self.outcomes[: len(cmds)] if o.code == 0]
        inproc = [untraced[i] for i, o in enumerate(self.outcomes[: len(cmds)]) if o.code == 0]
        m["cli.startup_ms"] = (statistics.mean(fresh) - statistics.mean(inproc)) * 1e3 if fresh else 0.0
        m["import.share"] = (
            (m["import.interp_ms"] + m["import.qnet_ms"]) / statistics.mean(fresh) / 1e3
            if fresh else 0.0)
        lines = [f"  {k:34s} {v * 1e3:10.1f} ms" for k, v in
                 sorted(rec.self_times().items(), key=lambda kv: -kv[1])]
        lines.append("  route children:")
        lines += [f"    {k:32s} {v * 1e3:10.1f} ms" for k, v in
                  sorted(tracing.route_breakdown(rec).items(), key=lambda kv: -kv[1])]
        return m, lines

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass


def run(workload: str, seed: int, seconds: int, trace: bool, limit: int | None = None) -> dict:
    """One benchmark run; returns the result object (the last stdout line)."""
    bench = Bench(workload, seed, seconds, limit)
    try:
        for _ in range(SETUP_REPEATS):
            bench.setup()
        bench.measure()
        metrics = bench.loop_metrics()
        if trace:
            layer, breakdown = bench.traced()
            metrics.update(layer)
    finally:
        bench.cleanup()
    units = _units()[1 if trace else 0]
    checker = bench.checker
    failed = sum(o.code != 0 for o in bench.outcomes)
    print(f"# {workload} seed={seed}: {len(bench.outcomes)} commands in {bench.passes} pass(es), "
          f"{failed} failed, {checker.checked} reports checked, "
          f"{checker.unchecked} cases without a reference; {_environment()}",
          file=sys.stderr)
    for err in checker.errors[:20]:
        print(f"# check failed: {err}", file=sys.stderr)
    if trace:
        print("# self time per span over the traced pass:", file=sys.stderr)
        print("\n".join(breakdown), file=sys.stderr)
    return {
        "correct": not checker.errors,
        "attempted": len(bench.outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def _units() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASS_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that a running command is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "qnet", "__init__.py")):
        print(f"error: no qnet sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
