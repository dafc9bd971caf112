"""Certification benchmark: closed-loop passes over a workload's instances.

Run from the root of a source checkout::

    python3 certbench/run.py --workload paper --seed 1 --seconds 20 --trace 0
    python3 certbench/run.py --workload all --seed 1 --seconds 20

One workload runs in one single-threaded process with one client: each
certificate starts when the previous one has finished.  Set-up imports
``tensorcert`` from the checkout's ``src/`` and renders every instance to an
input document; the timed part sends each document through the command-line
entry in process (``tensorcert.cli.run(["certify", "--input", ...])``), so
parsing and the JSON report are included.  Every report is checked against
the instance's known verdict.  A certificate that misses the per-certificate
deadline is interrupted and counts as failed; the pass goes on with the next
instance.

With ``--trace 0`` the last line of output holds the end-to-end metrics;
with ``--trace 1`` the layer boundaries are wrapped (see ``spans.py``) and
it holds per-layer self time and counters.  ``--workload all`` runs every
workload plain and traced, each in its own process, and prints all
metrics side by side with the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import LAYERS, Tracer, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Wall-clock limit for one certificate.  The slowest certificate of any
#: workload takes about 3 s on a 2-core machine; a run must end within
#: 180 s even if every certificate of its last pass runs into the limit.
DEADLINE_S = 15.0

#: Set-up runs this many times in a run and its median is reported.
SETUP_REPS = 5

#: Environment variables the command line reads as defaults.
PROGRAM_ENV = ("TENSORCERT_FIELD", "TENSORCERT_BUDGET")

END_TO_END = (("suite_s.p50", "s"), ("suite_s.tail", "s"), ("max_cert_s.p50", "s"),
              ("failed_share", "ratio"), ("false_certified", "count"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: Reported in the final JSON line; failed_share and false_certified are 0 on
#: a correct run and travel in its "failed" and "correct" fields instead.
GATED = ("suite_s.p50", "suite_s.tail", "max_cert_s.p50", "setup_s", "peak_rss_mb")

PER_LAYER = [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("poly.derivative_by.calls", "count"), ("poly.expand.repeat_share", "ratio"),
    ("flatten.cells", "count"), ("flatten.max_bits", "bits"),
    ("linalg.rref.calls", "count"), ("linalg.rref.repeat_share", "ratio"),
    ("ideals.pullback.generators", "count"), ("ideals.buchberger.calls", "count"),
    ("ideals.buchberger.basis_size", "count"), ("ideals.buchberger.max_bits", "bits"),
    ("ideals.classify.inconclusive_share", "ratio"),
    ("randgen.random_tensor.self_s", "s")]


class DeadlineMissed(Exception):
    """The per-certificate wall-clock deadline passed."""


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def _raise_deadline(signum, frame):
    raise DeadlineMissed(f"certificate exceeded {DEADLINE_S:g} s")


# ---------------------------------------------------------------------------
# provenance


def _git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
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


def _source_digest(package: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(seed, trace, seconds):
    return {"commit": _git_commit(ROOT),
            "src_sha256": _source_digest(ROOT / "src" / "tensorcert"),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "seed": seed, "trace": bool(trace), "seconds": seconds,
            "deadline_s": DEADLINE_S}


# ---------------------------------------------------------------------------
# set-up


def _import_program():
    """Import tensorcert afresh from the checkout's src/ and check where from."""
    for name in [m for m in sys.modules
                 if m == "tensorcert" or m.startswith("tensorcert.")]:
        del sys.modules[name]
    try:
        tc = importlib.import_module("tensorcert")
        cli = importlib.import_module("tensorcert.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import tensorcert: {exc}") from None
    expected = (ROOT / "src" / "tensorcert").resolve()
    if Path(tc.__file__).resolve().parent != expected:
        raise SetupError(f"tensorcert imported from {tc.__file__}, not {expected}")
    return tc, cli


def setup(workload, seed, tracer):
    """Import tensorcert afresh and generate and render the instances.

    Returns the instances, the ``cli`` module, and the seconds taken in all
    and, when tracing, in ``random_tensor``.
    """
    start = time.perf_counter()
    tc, cli = _import_program()
    if tracer is not None:
        before = tracer.self_s["randgen.random_tensor"]
        tc.random_tensor = tracer.wrap("randgen.random_tensor", tc.random_tensor)
    instances = WORKLOADS[workload].build(tc, cli, seed)
    elapsed = time.perf_counter() - start
    randgen_s = tracer.self_s["randgen.random_tensor"] - before if tracer else None
    return instances, cli, (elapsed, randgen_s)


# ---------------------------------------------------------------------------
# checking one certificate


def check_report(inst, code, report):
    """Problems with one certificate's exit code and JSON report ([] if none)."""
    problems = []
    want_code = 0 if inst.verdict == "Certified" else 2
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    if report is None:
        return problems + ["no JSON report"]
    if report["verdict"] != inst.verdict:
        problems.append(f"verdict {report['verdict']}, expected {inst.verdict}")
    if report["criterion"] != inst.criterion:
        problems.append(f"criterion {report['criterion']}, expected {inst.criterion}")
    checks = {c["name"]: c for c in report["checks"]}
    if inst.length is not None:
        name = "iii_section_length" if inst.criterion == "Prop31" \
            else "v_span_section_length"
        got = checks.get(name, {}).get("computed")
        if got != inst.length:
            problems.append(f"{name} = {got}, expected {inst.length}")
    if inst.control:
        if inst.failed_check is None:
            if report["reason"] != "out of criteria range":
                problems.append(f"reason {report['reason']!r}, "
                                "expected 'out of criteria range'")
        else:
            name, value = inst.failed_check
            check = checks.get(name)
            if check is None or check["passed"] or check["computed"] != value:
                problems.append(f"{name} = {check}, expected a failed check "
                                f"computing {value!r}")
    return problems


# ---------------------------------------------------------------------------
# the measured loop


def certify_once(run, argv):
    """Exit code and report text of one certificate, under the deadline."""
    out = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        code = run(argv, out=out)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, out.getvalue()


def parse_report(text):
    """The JSON report, or None when the command printed none."""
    try:
        return json.loads(text) if text else None
    except ValueError:
        return None


def measure(instances, paths, seconds, run, tracer, resetup):
    """Closed-loop passes until the next pass would end after ``seconds``.

    A pass takes the sum of its certificates' wall times, each measured
    around ``cli.run`` alone, so checking the reports is not counted.
    Between passes, ``resetup`` repeats the set-up at even intervals, so
    that its SETUP_REPS - 1 timings span the same stretch of the run as the
    passes; any still missing run after the last pass.

    Returns per-pass wall times, per-instance certificate times, failures,
    false certifications, set-up timings and, when tracing, per-pass and
    per-instance layer deltas.
    """
    argvs = []
    for inst, path in zip(instances, paths):
        argv = ["certify", "--input", str(path), "--report", "json"]
        if inst.h is not None:
            argv += ["--h", str(inst.h)]
        argvs.append(argv)
    passes, per_inst = [], [[] for _ in instances]
    layer_passes, layer_inst = [], [[] for _ in instances]
    failures, false_certified, attempted, setups = [], 0, 0, []
    start = time.perf_counter()
    while True:
        due = (len(setups) + 1) * seconds / SETUP_REPS
        if len(setups) < SETUP_REPS - 1 and time.perf_counter() - start >= due:
            setups.append(resetup())
        pass_s = 0.0
        pass_layers = tracer.snapshot() if tracer else None
        for i, (inst, argv) in enumerate(zip(instances, argvs)):
            if tracer:
                tracer.begin_certificate()
                cert_layers = tracer.snapshot()
            start_cert = time.perf_counter()
            try:
                code, text = certify_once(run, argv)
            except DeadlineMissed as exc:
                code, text, problems = None, "", [str(exc)]
            except Exception as exc:   # a crash is a failed certificate
                traceback.print_exc()
                code, text, problems = None, "", [f"{type(exc).__name__}: {exc}"]
            else:
                problems = None
            cert_s = time.perf_counter() - start_cert
            pass_s += cert_s
            per_inst[i].append(cert_s)
            if tracer:
                layer_inst[i].append(_delta(cert_layers, tracer.snapshot()))
            attempted += 1
            report = parse_report(text)
            if problems is None:
                problems = check_report(inst, code, report)
            if problems:
                failures.append((inst.name, "; ".join(problems)))
            if inst.control and (code == 0 or (report or {}).get("verdict") == "Certified"):
                false_certified += 1
        passes.append(pass_s)
        if tracer:
            layer_passes.append(_delta(pass_layers, tracer.snapshot()))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(passes) > seconds:
            break
    while len(setups) < SETUP_REPS - 1:
        setups.append(resetup())
    return {"passes": passes, "per_inst": per_inst, "failures": failures,
            "false_certified": false_certified, "attempted": attempted,
            "setups": setups, "layer_passes": layer_passes, "layer_inst": layer_inst}


def _delta(before, after):
    (s0, c0), (s1, c1) = before, after
    return ({k: v - s0.get(k, 0.0) for k, v in s1.items()},
            {k: v - c0.get(k, 0) for k, v in c1.items()})


# ---------------------------------------------------------------------------
# metrics


def end_to_end(res):
    passes = res["passes"]
    slowest = [max(times) for times in zip(*res["per_inst"])]
    return {"suite_s.p50": statistics.median(passes),
            "suite_s.tail": max(passes),
            "max_cert_s.p50": statistics.median(slowest),
            "failed_share": len(res["failures"]) / res["attempted"],
            "false_certified": res["false_certified"],
            "setup_s": statistics.median(t for t, _ in res["setups"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def per_layer(res, tracer):
    self_p = [selfs for selfs, _ in res["layer_passes"]]
    counts_p = [counts for _, counts in res["layer_passes"]]
    total = tracer.counts

    def per_pass(key):
        return statistics.median(c.get(key, 0) for c in counts_p)

    def share(part, whole):
        return total[part] / total[whole] if total[whole] else 0.0

    out = {f"{layer}.self_s": statistics.median(s.get(layer, 0.0) for s in self_p)
           for layer in LAYERS}
    out.update({
        "poly.derivative_by.calls": per_pass("poly.derivative_by.calls"),
        "poly.expand.repeat_share": share("poly.expand.repeats", "poly.expand.calls"),
        "flatten.cells": per_pass("flatten.cells"),
        "flatten.max_bits": tracer.maxima["flatten.max_bits"],
        "linalg.rref.calls": per_pass("linalg.rref.calls"),
        "linalg.rref.repeat_share": share("linalg.rref.repeats", "linalg.rref.calls"),
        "ideals.pullback.generators": per_pass("ideals.pullback.generators"),
        "ideals.buchberger.calls": per_pass("ideals.buchberger.calls"),
        "ideals.buchberger.basis_size": per_pass("ideals.buchberger.basis_size"),
        "ideals.buchberger.max_bits": tracer.maxima["ideals.buchberger.max_bits"],
        "ideals.classify.inconclusive_share": share("ideals.classify.inconclusive",
                                                    "ideals.classify.calls"),
        "randgen.random_tensor.self_s": statistics.median(r for _, r in res["setups"]),
    })
    return out


def instance_rows(instances, res, traced):
    rows = []
    for i, inst in enumerate(instances):
        row = {"instance": inst.name, "criterion": inst.criterion,
               "verdict": inst.verdict, "median_s": statistics.median(res["per_inst"][i])}
        if traced:
            selfs = [s for s, _ in res["layer_inst"][i]]
            row["self_s"] = {layer: statistics.median(s.get(layer, 0.0) for s in selfs)
                             for layer in LAYERS}
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# one workload in this process


def run_workload(name, seed, seconds, trace):
    for var in PROGRAM_ENV:
        os.environ.pop(var, None)
    tracer = Tracer() if trace else None
    instances, cli, first_setup = setup(name, seed, tracer)
    run = install(tracer) if tracer else cli.run
    info = provenance(seed, trace, seconds)
    print(f"# certbench workload={name} " + json.dumps(info, sort_keys=True))
    workdir = Path(tempfile.mkdtemp(prefix=".certbench-", dir=ROOT))
    old_handler = signal.signal(signal.SIGALRM, _raise_deadline)
    try:
        paths = []
        for i, inst in enumerate(instances):
            path = workdir / f"{i}.txt"
            path.write_text(inst.document, encoding="utf-8")
            paths.append(path)
        res = measure(instances, paths, seconds, run, tracer,
                      lambda: setup(name, seed, tracer)[2])
        res["setups"].append(first_setup)
    finally:
        signal.signal(signal.SIGALRM, old_handler)
        shutil.rmtree(workdir, ignore_errors=True)
    if threading.active_count() != 1:
        raise SetupError("the workload process must stay single-threaded")

    e2e = end_to_end(res)
    rows = instance_rows(instances, res, trace)
    for (inst_name, problems), times in Counter(res["failures"]).items():
        print(f"FAILED {inst_name} ({times}x): {problems}")
    for row in rows:
        line = (f"row {row['instance']:<34} {str(row['criterion']):<6} "
                f"{row['verdict']:<12} {row['median_s']:9.4f} s")
        if "self_s" in row:
            line += "  " + " ".join(f"{k}={v:.4f}" for k, v in row["self_s"].items()
                                    if v >= 5e-5)
        print(line)
    n = len(res["passes"])
    for key, unit in END_TO_END:
        note = f"  (p100 of {n} passes)" if key == "suite_s.tail" else ""
        print(f"metric {key} = {e2e[key]:.6g} {unit}{note}")
    summary = {"workload": name, "passes": n, "end_to_end": e2e, "rows": rows}
    if trace:
        layers = summary["per_layer"] = per_layer(res, tracer)
        for key, unit in PER_LAYER:
            print(f"layer {key} = {layers[key]:.6g} {unit}")
        metrics = {key: {"value": layers[key], "unit": unit} for key, unit in PER_LAYER}
    else:
        metrics = {key: {"value": e2e[key], "unit": unit}
                   for key, unit in END_TO_END if key in GATED}
    print("summary " + json.dumps(summary, sort_keys=True))
    print(json.dumps({"correct": not res["failures"] and not res["false_certified"],
                      "attempted": res["attempted"],
                      "failed": len(res["failures"]), "metrics": metrics}))
    return 1 if res["false_certified"] else 0


# ---------------------------------------------------------------------------
# every workload, plain and traced, one process each


def run_all(seed, seconds):
    summaries = {}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=seconds + 600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
            for line in proc.stdout.splitlines():
                if line.startswith("summary "):
                    summaries[name, trace] = json.loads(line[len("summary "):])
    def table(rows, trace, part):
        for key, unit in rows:
            cells = "".join(f"{summaries[w, trace][part][key]:>12.5g}"
                            if (w, trace) in summaries else f"{'-':>12}"
                            for w in WORKLOADS)
            print(f"{key:<36}{cells}  {unit}")

    print(f"\n{'metric':<36}" + "".join(f"{w:>12}" for w in WORKLOADS) + "  unit")
    table(END_TO_END, 0, "end_to_end")
    table(PER_LAYER, 1, "per_layer")
    cells = ""
    for w in WORKLOADS:
        if (w, 0) in summaries and (w, 1) in summaries:
            plain = summaries[w, 0]["end_to_end"]["suite_s.p50"]
            traced = summaries[w, 1]["end_to_end"]["suite_s.p50"]
            cells += f"{(traced - plain) / plain:>+12.1%}"
        else:
            cells += f"{'-':>12}"
    print(f"{'trace overhead':<36}{cells}  traced vs plain suite_s.p50")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        return run_workload(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"certbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
