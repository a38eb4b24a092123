"""Outside-in benchmark of the ellseries CLI.

    python3 perfbench/run.py --workload headline|elliptic|verify|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every op is a fresh
`python -m ellseries ... --format json` child built from the checkout's
`src/`, started only after the previous one ended (closed loop, one client,
one child at a time).  Every op's output is checked against references
built from mpmath alone (check.py).  The op list is repeated while another
pass fits in S seconds; at least one pass runs.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates an untraced
pass with a pass whose children run under the span tracer (spans.py) and
prints the per-layer metrics, plus the tracer's own cost.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import check
import spans
import workloads
from workloads import Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# No op runs later than this after start, so that a run ends within 180 s
# even if every op hangs until killed.
RUN_CAP_S = 150.0
SETUP_CHILDREN = 9

END_TO_END = (
    ("run_s", "s"), ("op_s_p50", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"), ("setup_s", "s"),
)


@dataclass
class OpRun:
    op: Op
    wall: float
    cpu: float
    rss_mb: float
    failure: Optional[str] = None   # timeout, traceback, exit_<code>, wrong_output
    detail: str = ""
    spans: list = field(default_factory=list)

    @property
    def charged(self) -> float:
        """Wall time, or the op's limit if it failed."""
        return self.wall if self.failure is None else self.op.limit_s


def op_p50(runs: List[OpRun]) -> float:
    """Median charged wall time per op, where a failed op ranks above every op
    that passed: a failure misses any latency limit.  So the median is a
    measured time unless half the ops or more failed."""
    ranked = [r.charged for r in sorted(runs, key=lambda r: (r.failure is not None, r.wall))]
    mid = len(ranked) // 2
    return ranked[mid] if len(ranked) % 2 else (ranked[mid - 1] + ranked[mid]) / 2


def _drain(stream, sink: List[bytes]) -> threading.Thread:
    """Start a thread that reads `stream` to its end into `sink`, then closes it."""
    def read() -> None:
        with stream:
            sink.append(stream.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    return reader


class Children:
    """Runs Python children against the checkout's sources, one at a time.

    A child's output comes back through pipes, so nothing is written to disk.
    """

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        # The children must hit CPython's default int-to-str limit exactly
        # as users do, so an inherited override is dropped.
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONINTMAXSTRDIGITS", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(root / "src")

    def run(self, args: List[str], limit: float, side: Optional[Tuple[int, int]] = None):
        """(exit code, wall s, rusage, timed out, stdout, stderr, side) of `python ARGS`.

        `side` is an os.pipe() whose write end the child inherits under the
        same descriptor number; what the child writes there is returned.
        """
        timeout = min(limit, self.deadline - time.perf_counter())
        if timeout <= 0:
            if side:
                os.close(side[0])
                os.close(side[1])
            return None, 0.0, None, True, "", "", ""
        killed = threading.Event()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, pass_fds=side[1:] if side else (),
                                env=self.env, cwd=self.root)
        out: List[bytes] = []
        err: List[bytes] = []
        extra: List[bytes] = []
        readers = [_drain(proc.stdout, out), _drain(proc.stderr, err)]
        if side:
            os.close(side[1])
            readers.append(_drain(os.fdopen(side[0], "rb"), extra))

        def kill() -> None:
            try:
                os.kill(proc.pid, signal.SIGKILL)
                killed.set()
            except ProcessLookupError:
                pass

        killer = threading.Timer(timeout, kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        for reader in readers:
            reader.join()
        text = [b"".join(chunks).decode(errors="replace") for chunks in (out, err, extra)]
        return (proc.returncode, wall, usage, killed.is_set(), *text)


def run_op(children: Children, op: Op, ref: Optional[str], traced: bool) -> OpRun:
    if traced:
        side = os.pipe()
        args = [str(HERE / "traced_cli.py"), str(side[1]), op.op_id, *op.argv]
    else:
        side, args = None, ["-m", "ellseries", *op.argv]
    rc, wall, usage, timed_out, stdout, stderr, spans_text = children.run(args, op.limit_s, side)
    cpu = usage.ru_utime + usage.ru_stime if usage else 0.0
    rss_mb = usage.ru_maxrss / 1024 if usage else 0.0
    result = OpRun(op, wall, cpu, rss_mb)
    last_err = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if timed_out:
        result.failure, result.detail = "timeout", f"killed at {op.limit_s:g} s limit"
    elif "Traceback (most recent call last)" in stderr:
        result.failure, result.detail = "traceback", last_err
    elif rc != 0:
        result.failure, result.detail = f"exit_{rc}", last_err
    else:
        problem = check.check_output(op, stdout, ref)
        if problem:
            result.failure, result.detail = "wrong_output", problem
    if traced:
        result.spans = spans.parse(spans_text, op.op_id)
    return result


def setup_wall(children: Children, digits: int) -> float:
    """Wall time of a fresh child that imports ellseries, builds one context and exits."""
    rc, wall, _, _, _, stderr, _ = children.run(
        ["-c", f"import ellseries; ellseries.make_context({digits})"], 60.0)
    if rc != 0:
        raise RuntimeError(f"set-up child failed: {stderr.strip()[-300:]}")
    return wall


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 children: Children) -> dict:
    ops = workloads.make_ops(name, seed)
    refs = {op.op_id: check.reference(op) for op in ops}          # untimed
    digits = max(op.target for op in ops)
    setup_wall(children, digits)            # also writes the bytecode caches
    # The set-up children are spread over the first pass, so that they meet
    # the same phases of a shared host's speed as the ops do.
    setup_before = Counter(i * len(ops) // SETUP_CHILDREN for i in range(SETUP_CHILDREN))
    setup: List[float] = []
    plain: List[List[OpRun]] = []
    traced: List[List[OpRun]] = []
    t0 = time.perf_counter()
    while True:
        plain_pass = []
        for i, op in enumerate(ops):
            if not plain and not trace:
                setup.extend(setup_wall(children, digits) for _ in range(setup_before[i]))
            plain_pass.append(run_op(children, op, refs[op.op_id], False))
        plain.append(plain_pass)
        if trace:
            traced.append([run_op(children, op, refs[op.op_id], True) for op in ops])
        elapsed = time.perf_counter() - t0
        if elapsed * (1 + 1 / len(plain)) > seconds or time.perf_counter() > children.deadline:
            break

    runs = [r for p in plain + traced for r in p]
    attempted, failed = len(runs), sum(r.failure is not None for r in runs)
    plain_runs = [r for p in plain for r in p]
    if trace:
        per_pass = [spans.layer_metrics([r.spans for r in p], [r.wall for r in p]) for p in traced]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["trace.overhead_s"] = statistics.median(
            sum(r.wall for r in t) - sum(r.wall for r in p) for p, t in zip(plain, traced))
        units = {n: u for n, u, _ in spans.LAYER_METRICS}
    else:
        metrics = {
            "run_s": statistics.median(sum(r.charged for r in p) for p in plain),
            "op_s_p50": op_p50(plain_runs),
            "cpu_s": statistics.median(sum(r.cpu for r in p) for p in plain),
            "peak_rss_mb": max(r.rss_mb for r in plain_runs),
            "ok_share": sum(r.failure is None for r in plain_runs) / len(plain_runs),
            "setup_s": statistics.median(setup),
        }
        units = dict(END_TO_END)

    lines = [f"workload {name}, seed {seed}: {len(plain)} pass(es) of {len(ops)} ops"
             f"{' plus as many traced' if trace else ''}; {attempted} ops, {failed} failed;"
             f"{'' if trace else f' op_s_p50 over {len(plain_runs)} samples, setup_s over {len(setup)}'}"]
    seen = Counter((r.op.op_id, r.failure) for r in runs if r.failure)
    for r in runs:
        if r.failure and (r.op.op_id, r.failure) in seen:
            n = seen.pop((r.op.op_id, r.failure))
            lines.append(f"  failed x{n} {r.op.op_id} [{' '.join(r.op.argv)}]: "
                         f"{r.failure}: {r.detail[:160]}")
    if not trace:
        # How much of run_s is measured and how much is the failed ops' charge.
        charge = statistics.median(sum(r.charged for r in p if r.failure) for p in plain)
        measured = statistics.median(sum(r.wall for r in p if not r.failure) for p in plain)
        lines.append(f"  run_s per pass, median: {measured:.3f} s in ops that passed, "
                     f"{charge:.3f} s charged to failed ops")
    for k, v in metrics.items():
        lines.append(f"  {k:<38} {v:>14.6f} {units[k]}")
    return {
        "lines": lines,
        "correct": not any(r.failure == "wrong_output" for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ellseries" / "__main__.py").is_file():
        print(f"perfbench: no ellseries sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results: Dict[str, dict] = {}
    children = Children(ROOT, time.perf_counter() + RUN_CAP_S * len(names))
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), children)
        print("\n".join(results[name]["lines"]), flush=True)

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, res in results.items() for k, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(res["correct"] for res in results.values()),
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": sum(res["failed"] for res in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
