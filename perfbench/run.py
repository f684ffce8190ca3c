"""Benchmark of the wadroid command line on forged devices.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a wadroid checkout: the program under test is
the checkout's ``src/wadroid``, and everything the run writes goes under
``.perfbench-work/`` there.

One run forges one device's evidence from the seed (set-up, done
SETUP_REPEATS times), checks the forged tree against the forge's own
expected parse result, then measures for S seconds. Each operation is
one ``wadroid`` command (report, timeline, diff) run as its own process,
one after the other from this single process: a closed loop with one
client, on a warm OS page cache. After the loop it checks that the
evidence tree is unchanged.

With ``--trace 0`` the commands run untraced and the end-to-end metrics
are printed; with ``--trace 1`` each command runs under
``perfbench/traced.py`` (alternating with untraced ``report`` runs, to
measure the tracing overhead) and the per-layer metrics are printed. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = Path(".perfbench-work")  # relative, so outputs do not depend on the checkout path

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 60
TZ = "+01:00"
COMMANDS = ("report", "timeline", "diff")

# The command whose traced process yields each per-layer number; every
# other layer comes from the traced ``report``.
LAYER_SOURCE = {
    "report.render_csv_s": "timeline",
    "report.csv_rows": "timeline",
    "correlator.backup_diff_s": "diff",
}


def _argv(command: str, evidence: Path, out_dir: Path) -> tuple[list[str], Path, Path]:
    """wadroid arguments of one command, its output file and where its stdout goes."""
    if command == "report":
        out = out_dir / "report.json"
        argv = ["report", "--in", str(evidence), "--out", str(out), "--tz", TZ]
        return argv, out, out_dir / "stdout"
    if command == "timeline":
        out = out_dir / "timeline.csv"
        return ["timeline", "--in", str(evidence), "--format", "csv"], out, out
    out = out_dir / "diff.json"
    return ["diff", "--in", str(evidence)], out, out


class Runner:
    """Runs wadroid commands one at a time and checks what they produce."""

    def __init__(self, work: Path, evidence: Path):
        self.work = work
        self.evidence = evidence
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work / "tmp"))
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.wall: dict[str, list[float]] = {c: [] for c in COMMANDS}
        self.traced_wall: dict[str, list[float]] = {c: [] for c in COMMANDS}
        self.rss_mb: list[float] = []
        self.layers: dict[str, list[dict]] = {c: [] for c in COMMANDS}

    def _spawn(self, argv: list[str], stdout_path: Path) -> tuple[float, int, float]:
        """Wall seconds, exit code and peak RSS (MB) of one child process."""
        with open(stdout_path, "wb") as out, open(self.work / "stderr.log", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024

    def run(self, command: str, traced: bool = False, timed: bool = True) -> None:
        self.attempted += 1
        out_dir = self.work / "out"
        argv, output, stdout = _argv(command, self.evidence, out_dir)
        label = f"{'traced ' if traced else ''}{command} #{self.attempted}"
        if traced:
            trace_file = self.work / "trace" / f"{self.attempted:04d}-{command}.json"
            child = [sys.executable, str(HERE / "traced.py"), str(trace_file), "--", *argv]
        else:
            child = [sys.executable, "-m", "wadroid.cli", *argv]
        output.unlink(missing_ok=True)  # a stale output must not pass for this run's
        wall, code, rss = self._spawn(child, stdout)
        if code not in (0, 1):
            self.failures.append(f"{label}: exit code {code}")
            return
        if not output.is_file():
            self.failures.append(f"{label}: wrote no output")
            return
        digest = hashlib.sha256(output.read_bytes()).hexdigest()
        if self.digests.setdefault(command, digest) != digest:
            self.failures.append(f"{label}: output differs from the first run's")
            return
        if not timed:
            return
        if traced:
            self.traced_wall[command].append(wall)
            self.layers[command].append(json.loads(trace_file.read_text())["layers"])
        else:
            self.wall[command].append(wall)
            if command == "report":
                self.rss_mb.append(rss)

    def check(self, name: str, ok: bool) -> None:
        """A whole-run correctness check counts as one more operation."""
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def _summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"median {values[0]:.4f} (n=1)" if values else "no samples"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f} q1 {q1:.4f} q3 {q3:.4f} max {max(values):.4f} (n={len(values)})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="input size factor (the smoke test shrinks inputs)"
    )
    args = parser.parse_args(argv)

    if not (SRC / "wadroid" / "cli.py").is_file():
        print(f"no wadroid sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import wadroid
    from wadroid import forge, ingest
    from workloads import WORKLOADS

    if not Path(wadroid.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"imported wadroid from {wadroid.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 64

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("tmp", "out", "trace"):
        (work / sub).mkdir(parents=True)
    tempfile.tempdir = str(work / "tmp")  # the forge stages backups in a temp directory
    evidence = work / "evidence"

    script = WORKLOADS[args.workload](args.seed, args.scale)
    setup = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(evidence, ignore_errors=True)
        start = time.perf_counter()
        result = forge.generate_bundle(script, evidence)
        setup.append(time.perf_counter() - start)

    for path in evidence.rglob("*"):  # no writeback of the forged tree while timing
        if path.is_file():
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())

    runner = Runner(work, evidence)
    runner.check("parsed bundle equals the forge's expected bundle",
                 ingest.load_case_bundle(evidence) == result.bundle)
    before = ingest.snapshot_tree(evidence)
    expected = result.bundle
    print(
        f"workload {args.workload} seed {args.seed}: {len(script.actions)} actions, "
        f"{len(expected.messages)} live messages, {len(expected.log_events)} log events, "
        f"{len(expected.backups)} backups, {sum(len(b.messages) for b in expected.backups)} backup rows, "
        f"{len(expected.media_inventory)} media files "
        f"({sum(m.size_bytes for m in expected.media_inventory) / 1e6:.1f} MB)"
    )
    del result, expected

    runner.run("report", timed=False)  # warm-up: the program's files enter the page cache
    deadline = time.perf_counter() + args.seconds
    reps = 0
    while reps == 0 or time.perf_counter() < deadline:
        if args.trace:
            runner.run("report")
        for command in COMMANDS:
            runner.run(command, traced=bool(args.trace))
        reps += 1
    runner.check("evidence tree unchanged by the runs", ingest.snapshot_tree(evidence) == before)

    for command in COMMANDS:
        print(f"{command}_s {_summary(runner.wall[command])}")
        if args.trace:
            print(f"traced {command}_s {_summary(runner.traced_wall[command])}")
    print(f"peak_rss_mb {_summary(runner.rss_mb)}")
    print(f"setup_s {_summary(setup)}")
    for command, digest in sorted(runner.digests.items()):
        print(f"sha256 {command} {digest}")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print(f"failed_ops {len(runner.failures)}/{runner.attempted}")

    def median(values):
        return statistics.median(values) if values else 0.0

    if args.trace:
        names = sorted({k for samples in runner.layers.values() for s in samples for k in s})
        metrics = {
            name: median([s[name] for s in runner.layers[LAYER_SOURCE.get(name, "report")]])
            for name in names
            if name != "cli.import_s"
        }
        metrics["cli.import_s"] = median(
            [s["cli.import_s"] for samples in runner.layers.values() for s in samples]
        )
        metrics["forge.generate_s"] = median(setup)
        metrics["trace.overhead_s"] = median(runner.traced_wall["report"]) - median(runner.wall["report"])
    else:
        metrics = {
            "report_s": median(runner.wall["report"]),
            "timeline_s": median(runner.wall["timeline"]),
            "diff_s": median(runner.wall["diff"]),
            "peak_rss_mb": median(runner.rss_mb),
            "setup_s": median(setup),
        }
    (work / "result.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "setup_s": setup,
                    "wall_s": runner.wall, "traced_wall_s": runner.traced_wall,
                    "peak_rss_mb": runner.rss_mb, "sha256": runner.digests,
                    "failures": runner.failures}, indent=2),
        encoding="utf-8",
    )
    print(
        json.dumps(
            {
                "correct": not runner.failures,
                "attempted": runner.attempted,
                "failed": len(runner.failures),
                "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
            }
        )
    )
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("mb"):
        return "MB"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
