#!/usr/bin/env python3
"""End-to-end benchmark runner for EnsemFDet; README.md beside it has the
workloads and metrics.

One run, as BENCHMARK.json names it (prints one JSON line last):

  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1

--trace 0 reports the end-to-end metrics and --trace 1 the per-layer ones.
Every run measures both.

Commands:

  setup   [--seed N] [--pin]            build ensemfdet_e2e, make inputs
                                        (--pin rewrites fingerprints.json)
  run     [--workload W] [--seed N] [--seconds S] [--out DIR]
  compare --base DIR --change DIR       judge two sets of runs
  smoke                                 tiny end-to-end self-check (<30 s)

Everything is built and written under build-e2e/ at the repository root.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "ensemfdet_e2e"
PINS = HERE / "fingerprints.json"
WORKLOADS = ["batch-1m", "batch-small-concurrent", "stream-wal"]
DEFAULT_SEED = 7
# Generated inputs kept per workload; older seeds are deleted first.
KEEP_INPUTS = 12
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check_tree():
    for need in ("CMakeLists.txt", "src"):
        if not (ROOT / need).exists():
            raise BenchError(f"{ROOT / need} is missing: the benchmark builds "
                             "the engine from a full source checkout")


def build():
    check_tree()
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    "ensemfdet_e2e"], check=True, stdout=sys.stderr)


def child_env():
    # The engine reads ENSEMFDET_* knobs (tracing, logging) from the
    # environment; the benchmark runs with none set.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("ENSEMFDET_")}


def git_rev():
    # The ceiling keeps git from reporting a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--short=12", "HEAD"], capture_output=True,
                             text=True, timeout=10, env=env)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def data_dir(workload, seed, tiny):
    return BUILD / "data" / f"{workload}{'-tiny' if tiny else ''}-s{seed}"


def read_manifest(path):
    fields = {}
    for line in (path / "manifest.txt").read_text().splitlines():
        key, _, value = line.partition(" ")
        fields[key] = value
    return fields


def evict_old_inputs(workload, tiny, keep_dir):
    prefix = f"{workload}{'-tiny' if tiny else ''}-s"
    dirs = [d for d in (BUILD / "data").glob(prefix + "*")
            if d.is_dir() and d != keep_dir and d.name[len(prefix):].isdigit()]
    dirs.sort(key=lambda d: d.stat().st_mtime)
    for d in dirs[:max(0, len(dirs) - (KEEP_INPUTS - 1))]:
        shutil.rmtree(d, ignore_errors=True)


def generate(workload, seed, tiny):
    path = data_dir(workload, seed, tiny)
    evict_old_inputs(workload, tiny, path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "gen", f"--workload={workload}", f"--seed={seed}",
           f"--data={path}"] + (["--tiny"] if tiny else [])
    subprocess.run(cmd, check=True, stdout=sys.stderr, env=child_env(),
                   timeout=RUN_TIMEOUT_S)
    return path


def fingerprints(path):
    return {k: v for k, v in read_manifest(path).items()
            if k.startswith("fingerprint.")}


def ensure_inputs(workload, seed, tiny):
    """Generates the inputs once per (workload, scale, seed) and checks the
    fingerprints of the default seed against fingerprints.json."""
    path = data_dir(workload, seed, tiny)
    manifest = path / "manifest.txt"
    # A rebuilt ensemfdet_e2e may carry a changed datagen: generate afresh.
    if not manifest.exists() or \
            manifest.stat().st_mtime < BINARY.stat().st_mtime:
        generate(workload, seed, tiny)
    os.utime(path)
    if seed == DEFAULT_SEED:
        want = json.loads(PINS.read_text())["tiny" if tiny else "full"]
        got = fingerprints(path)
        if want.get(workload) != got:
            raise BenchError(
                f"{workload} inputs for seed {seed} do not match "
                f"fingerprints.json (pinned {want.get(workload)}, generated "
                f"{got}): datagen changed the workload")
    return path


def run_bench(workload, seed, seconds, tiny=False):
    """Runs one workload in its own process; returns its JSON."""
    path = ensure_inputs(workload, seed, tiny)
    work = BUILD / "work" / workload
    cmd = [str(BINARY), "run", f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--data={path}", f"--work={work}",
           f"--git-rev={git_rev()}"]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=child_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(
            f"{workload}: ensemfdet_e2e timed out after {e.timeout} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: ensemfdet_e2e printed nothing "
                         f"(exit {proc.returncode})")
    for line in lines[:-1]:
        print(line, flush=True)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise BenchError(f"{workload}: ensemfdet_e2e's last line is not JSON "
                         f"(exit {proc.returncode}): {lines[-1]}")
    result["exit_code"] = proc.returncode
    return result


def contract_line(result, names):
    """The one-line result: correct/attempted/failed plus `names`."""
    metrics = {}
    missing = []
    for name in names:
        if name in result["metrics"]:
            metrics[name] = result["metrics"][name]
        else:
            missing.append(name)
    if missing:
        log("metrics missing from ensemfdet_e2e's output: "
            + ", ".join(missing))
    correct = (bool(result["correct"]) and not missing
               and result["exit_code"] == 0)
    return {"correct": correct,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]) + len(missing),
            "metrics": metrics}


def metric_names(spec, per_layer):
    return [m["name"]
            for m in spec["per_layer" if per_layer else "end_to_end"]]


def one_run(args):
    spec = benchmark_spec()
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload}")
    build()
    result = run_bench(args.workload, args.seed, args.seconds)
    line = contract_line(result, metric_names(spec, args.trace == 1))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


def save_result(out, result):
    out.mkdir(parents=True, exist_ok=True)
    workload = result["info"]["workload"]
    index = len(list(out.glob(f"{workload}.*.json")))
    path = out / f"{workload}.{index:03d}.json"
    path.write_text(json.dumps(result) + "\n")


def cmd_setup(args):
    build()
    if args.pin:
        # Regenerates the default seed's inputs and pins what datagen makes
        # now; only for a change that means to alter the workloads.
        pins = {"seed": DEFAULT_SEED}
        for tiny in (False, True):
            pins["tiny" if tiny else "full"] = {
                w: fingerprints(generate(w, DEFAULT_SEED, tiny))
                for w in WORKLOADS}
        PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
        log(f"wrote {PINS}")
        return 0
    for w in WORKLOADS:
        log(f"{w}: inputs in {ensure_inputs(w, args.seed, False)}")
    return 0


def selected(workload):
    return WORKLOADS if workload == "all" else [workload]


def cmd_run(args):
    build()
    ok = True
    for w in selected(args.workload):
        result = run_bench(w, args.seed, args.seconds)
        ok = ok and result["correct"] and result["exit_code"] == 0
        if args.out:
            save_result(Path(args.out), result)
    return 0 if ok else 1


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, bound, higher_better):
    """choosing-metrics §8: improved needs the change to win >= 9/10 of
    the pairs and the medians to differ by more than the base's own
    quartile spread; regressed means worse by more than the bound; a
    spread wider than the bound leaves the row unresolved unless every
    change run beats (or loses to) every base run."""
    sign = 1.0 if higher_better else -1.0
    q1, med_b, q3 = quartiles(base)
    _, med_c, _ = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    worse_by = (sign * (med_b - med_c) / abs(med_b)) if med_b else 0.0
    spread = (q3 - q1) / abs(med_b) if med_b else 0.0
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    all_worse = all(sign * (c - b) < 0 for c in change for b in base)
    if wins >= 0.9 * len(pairs) and abs(med_c - med_b) > (q3 - q1) \
            and sign * (med_c - med_b) > 0:
        v = "improved"
    elif spread > bound and not (all_better or all_worse):
        v = "unresolved"
    elif worse_by > bound:
        v = "regressed"
    else:
        v = "unchanged"
    return v, wins / len(pairs)


# f1 never depends on speed: for one seed both sides compute it from the
# same inputs. So compare judges it pair by pair against an absolute bound,
# not against BENCHMARK.json's share of the median, which has to cover the
# spread across seeds.
PAIRED_ABS_BOUND = {"f1": 0.005}


def paired_verdict(base, change, abs_bound, higher_better):
    """Judges the per-seed differences: regressed when their median is
    worse than abs_bound, improved when it is better by more than abs_bound
    and the change wins at least 9/10 of the pairs."""
    sign = 1.0 if higher_better else -1.0
    diffs = [sign * (c - b) for b, c in zip(base, change)]
    wins = sum(1 for d in diffs if d > 0)
    middle = statistics.median(diffs)
    if middle < -abs_bound:
        v = "regressed"
    elif middle > abs_bound and wins >= 0.9 * len(diffs):
        v = "improved"
    else:
        v = "unchanged"
    return v, wins / len(diffs)


def load_set(path):
    results = {}
    files = sorted(Path(path).glob("*.json"))
    if not files:
        raise BenchError(f"no run results in {path}")
    for f in files:
        r = json.loads(f.read_text())
        results.setdefault(r["info"]["workload"], []).append(r)
    return results


def identity(result):
    machine = {k: v for k, v in result["machine"].items() if k != "git_rev"}
    inputs = {k: v for k, v in result["info"].items()
              if k.startswith("fingerprint.") or k in ("seed", "tiny")}
    return machine, inputs


def cmd_compare(args):
    spec = benchmark_spec()
    base, change = load_set(args.base), load_set(args.change)
    rows = []
    regressed = False
    for w in WORKLOADS:
        if w not in base or w not in change:
            continue
        n = min(len(base[w]), len(change[w]))
        for b, c in zip(base[w][:n], change[w][:n]):
            mb, ib = identity(b)
            mc, ic = identity(c)
            if mb != mc:
                raise BenchError(f"{w}: machine blocks differ: {mb} vs {mc}")
            if ib != ic:
                raise BenchError(f"{w}: inputs differ: {ib} vs {ic}")
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in base[w][:n]]
            cv = [r["metrics"][name]["value"] for r in change[w][:n]]
            higher = m["better"] == "higher"
            if name in PAIRED_ABS_BOUND:
                v, wins = paired_verdict(bv, cv, PAIRED_ABS_BOUND[name],
                                         higher)
            else:
                v, wins = verdict(bv, cv, m["bound"], higher)
            regressed = regressed or v == "regressed"
            qb, qc = quartiles(bv), quartiles(cv)
            rows.append((w, name, m["unit"], qb, qc, wins, v))
    if not rows:
        raise BenchError("the two sets share no workload")
    print(f"{'workload':<24}{'metric':<18}{'base median [q1, q3]':<40}"
          f"{'change median [q1, q3]':<40}{'wins':>6}  verdict")
    for w, name, unit, qb, qc, wins, v in rows:
        fb = f"{qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}] {unit}"
        fc = f"{qc[1]:.4g} [{qc[0]:.4g}, {qc[2]:.4g}] {unit}"
        print(f"{w:<24}{name:<18}{fb:<40}{fc:<40}{wins:>6.0%}  {v}")
    return 1 if regressed else 0


def cmd_smoke(_args):
    start = time.time()
    build()
    built = time.time()
    spec = benchmark_spec()
    out = BUILD / "smoke"
    shutil.rmtree(out, ignore_errors=True)
    ok = True
    for w in WORKLOADS:
        result = run_bench(w, DEFAULT_SEED, 0.2, tiny=True)
        # Both result lines must be complete: end-to-end and per-layer.
        good = all(contract_line(result, metric_names(spec, per_layer))
                   ["correct"] for per_layer in (False, True))
        ok = ok and good
        save_result(out, result)
        log(f"smoke {w}: {'ok' if good else 'FAILED'}")
    rows = subprocess.run([sys.executable, __file__, "compare",
                           "--base", str(out), "--change", str(out)],
                          capture_output=True, text=True)
    sys.stdout.write(rows.stdout)
    sys.stderr.write(rows.stderr)
    verdicts = [line.split()[-1] for line in rows.stdout.splitlines()[1:]]
    ok = ok and rows.returncode == 0 and verdicts and \
        all(v == "unchanged" for v in verdicts)
    log(f"smoke {'passed' if ok else 'FAILED'} in {time.time() - built:.1f} s "
        f"(+{built - start:.1f} s build)")
    return 0 if ok else 1


def main(argv):
    if argv and not argv[0].startswith("-"):
        p = argparse.ArgumentParser(prog="run.py")
        sub = p.add_subparsers(dest="command", required=True)
        s = sub.add_parser("setup")
        s.add_argument("--seed", type=int, default=DEFAULT_SEED)
        s.add_argument("--pin", action="store_true")
        r = sub.add_parser("run")
        r.add_argument("--workload", default="all",
                       choices=WORKLOADS + ["all"])
        r.add_argument("--seed", type=int, default=DEFAULT_SEED)
        r.add_argument("--seconds", type=float,
                       default=benchmark_spec()["run_seconds"])
        r.add_argument("--out", default=None)
        c = sub.add_parser("compare")
        c.add_argument("--base", required=True)
        c.add_argument("--change", required=True)
        sub.add_parser("smoke")
        args = p.parse_args(argv)
        handler = {"setup": cmd_setup, "run": cmd_run,
                   "compare": cmd_compare, "smoke": cmd_smoke}[args.command]
        return handler(args)
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return one_run(p.parse_args(argv))


if __name__ == "__main__":
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # ensemfdet_e2e process it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, subprocess.CalledProcessError, OSError,
            json.JSONDecodeError, KeyError) as e:
        log(f"error: {e}")
        sys.exit(2)
