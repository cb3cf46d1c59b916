#!/usr/bin/env python3
"""End-to-end benchmark of the socs SQL server (see README.md).

    python3 perfbench/run.py --workload sky-count --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which builds the socs libraries from this checkout), runs
one workload against a SqlServer in its own process, checks every reply, and
prints one JSON object as the last line of stdout. --trace 1 adds a traced
run and the in-process replay, and reports the per-layer metrics instead.
"""
import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sky-count", "sky-project")
RECOVERY_CYCLES = 9
REPLAY_SECONDS = 10
STEP_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench/ out of tree; returns the binary."""
    for need in ("CMakeLists.txt", os.path.join("src", "server", "server.h")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError(f"no socs sources here ({need} is missing)")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    bdir = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", bdir, "-j4", "--target", "socs_perfbench"],
                   stdout=sys.stderr, check=True, timeout=840)
    return os.path.join(bdir, "socs_perfbench")


def last_json(text, what):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise BenchError(f"{what} printed no result")
    return json.loads(lines[-1])


def run_json(cmd, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=STEP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with {proc.returncode}")
    return last_json(proc.stdout, what)


def dir_bytes(path):
    total = 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total


def run_phase(binary, args, work, trace, spans):
    """One server process, one load process, then the recovery cycles.

    setup_s is timed from the server process's start until it accepts
    statements: catalog build, the store mirror, the initial checkpoint and
    SqlServer::Start.
    """
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    data = os.path.join(work, "data")
    shutil.rmtree(data, ignore_errors=True)
    t0 = time.perf_counter()
    srv = subprocess.Popen([binary, "serve", *common, "--data-dir", data],
                           stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([srv.stdout], [], [], STEP_TIMEOUT_S)
        line = srv.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        if not line.startswith("READY "):
            raise BenchError("server did not start")
        load_cmd = [binary, "load", *common, "--port", line.split()[1],
                    "--seconds", str(args.seconds), "--trace", "1" if trace else "0"]
        if trace:
            load_cmd += ["--spans", spans, "--order", os.path.join(work, "order")]
        load = run_json(load_cmd, "load")
        srv.stdin.write("stop\n")
        srv.stdin.flush()
        out, _ = srv.communicate(timeout=STEP_TIMEOUT_S)
        if srv.returncode != 0:
            raise BenchError(f"server exited with {srv.returncode}")
        server = last_json(out, "server")
    finally:
        if srv.poll() is None:
            srv.kill()
            srv.wait()
    disk = dir_bytes(data)
    rec_cmd = [binary, "recover", *common, "--data-dir", data,
               "--acked-rows", str(load["acked_rows"])]
    if trace:
        rec_cmd += ["--spans", spans]
    recoveries = [run_json(rec_cmd, "recover") for _ in range(RECOVERY_CYCLES)]
    shutil.rmtree(data, ignore_errors=True)
    errors = load["errors"] + server["errors"]
    for r in recoveries:
        errors += r["errors"]
    return {"setup_s": setup_s, "load": load, "server": server, "disk": disk,
            "recoveries": recoveries, "errors": errors}


def end_to_end(p):
    load, server = p["load"], p["server"]
    return {
        "setup_s": (p["setup_s"], "s"),
        "stmt_per_s": (load["stmt_per_s"], "stmt/s"),
        "select_p50_ms": (load["select_p50_ms"], "ms"),
        "select_p95_ms": (load["select_p95_ms"], "ms"),
        "peak_rss_mb": (server["peak_rss_kb"] / 1024.0, "MB"),
        "insert_p50_ms": (load["insert_p50_ms"], "ms"),
        "insert_p95_ms": (load["insert_p95_ms"], "ms"),
        "disk_bytes_per_user_byte": (p["disk"] / (24.0 * server["rows"]), "ratio"),
        "recover_s": (statistics.median(r["recover_s"] for r in p["recoveries"]), "s"),
    }


def per_layer(untraced, traced, replay):
    load, server = traced["load"], traced["server"]
    selects = max(1, server["statements"] - load["inserts"])
    inserts = max(1, load["inserts"])
    rec = traced["recoveries"]
    base = untraced["load"]["stmt_per_s"]
    return {
        "sql.parse_us": (replay["parse_us"], "us"),
        "sql.compile_us": (replay["compile_us"], "us"),
        "engine.optimize_us": (replay["optimize_us"], "us"),
        "engine.interpret_ms": (replay["interpret_ms"], "ms"),
        "engine.result_rows_per_select": (replay["result_rows_per_select"], "rows"),
        "server.serialize_ms": (replay["serialize_ms"], "ms"),
        "server.reply_parse_ms": (replay["reply_parse_ms"], "ms"),
        "server.reply_bytes_per_select": (replay["reply_bytes_per_select"], "bytes"),
        "server.execute_ms": (replay["execute_ms"], "ms"),
        "server.wire_overhead_ms": (replay["wire_overhead_ms"], "ms"),
        "server.scans_saved_per_select": (server["shared_scans_saved"] / selects, "ratio"),
        "server.batched_statements": (server["batched_statements"], "count"),
        "server.admission_waits": (server["admission_waits"], "count"),
        "server.peak_session_queue": (server["peak_session_queue"], "count"),
        "core.read_bytes_per_select": (load["read_bytes_per_select"], "bytes"),
        "core.segments_scanned_per_select": (load["segments_scanned_per_select"], "count"),
        "storage.decode_bytes_per_select": (load["decode_bytes_per_select"], "bytes"),
        "core.splits": (load["splits"], "count"),
        "core.reorg_write_bytes": (load["reorg_write_bytes"], "bytes"),
        "core.segments": (server["layout_segments"], "count"),
        "exec.maintenance_runs": (server["maintenance_runs"], "count"),
        "exec.maintenance_skips": (server["maintenance_skips"], "count"),
        "exec.background_splits": (server["background_splits"], "count"),
        "exec.background_write_bytes": (server["background_write_bytes"], "bytes"),
        "core.append_write_bytes_per_insert": (load["append_write_bytes_per_insert"], "bytes"),
        "persist.bytes_written_per_insert": (server["bytes_written"] / inserts, "bytes"),
        "persist.live_bytes": (server["live_bytes"], "bytes"),
        "persist.dead_bytes": (server["dead_bytes"], "bytes"),
        "storage.physical_to_logical": (
            load["physical_bytes"] / max(1, load["logical_bytes"]), "ratio"),
        "storage.segments_recompressed": (load["segments_recompressed"], "count"),
        "persist.checkpoint_ms": (replay["checkpoint_ms"], "ms"),
        "persist.checkpoints": (server["checkpoints"], "count"),
        "persist.open_ms": (statistics.median(r["open_ms"] for r in rec), "ms"),
        "persist.restore_ms": (statistics.median(r["restore_ms"] for r in rec), "ms"),
        "storage.decode_cache_bytes": (load["decode_cache_bytes"], "bytes"),
        "sim.simulated_ms_per_select": (load["simulated_ms_per_select"], "ms"),
        "sim.wall_per_simulated": (load["wall_per_simulated"], "ratio"),
        "trace.overhead_pct": (
            100.0 * (base - load["stmt_per_s"]) / base if base else 0.0, "%"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        raise BenchError("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    results = os.path.join(ROOT, ".bench_results")
    os.makedirs(work, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    try:
        untraced = run_phase(binary, args, work, False, None)
        phases = [untraced]
        if args.trace:
            spans = os.path.join(results, f"spans-{args.workload}-seed{args.seed}.jsonl")
            if os.path.exists(spans):
                os.remove(spans)
            traced = run_phase(binary, args, work, True, spans)
            phases.append(traced)
            replay = run_json(
                [binary, "replay", "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(min(args.seconds, REPLAY_SECONDS)), "--order", os.path.join(work, "order"),
                 "--data-dir", os.path.join(work, "replay"), "--spans", spans],
                "replay")
            metrics = per_layer(untraced, traced, replay)
            log(f"spans written to {os.path.relpath(spans, ROOT)}")
        else:
            replay = {"errors": []}
            metrics = end_to_end(untraced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = replay["errors"] + [e for p in phases for e in p["errors"]]
    for e in errors[:20]:
        log(f"check failed: {e}")
    result = {
        "correct": not errors,
        "attempted": sum(p["load"]["attempted"] for p in phases),
        "failed": sum(p["load"]["failed"] for p in phases),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        sys.exit(2)
