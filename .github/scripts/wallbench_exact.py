#!/usr/bin/env python3
"""Gate wallbench's exact traced columns against the committed reference.

    wallbench_exact.py check WALLBENCH_EXACT.json wallbench-exact-<workload>.txt ...
    wallbench_exact.py write WALLBENCH_EXACT.json wallbench-exact-<workload>.txt ...

Each input is the saved standard output of one traced run at the settings
the reference names (`--trace 1 --seconds 3 --seed 3`). The columns below are
counts and simulated totals the program computes: they repeat exactly from
run to run and from host to host, so any difference is a behaviour change,
never noise. Every other metric of the run is wall-clock; those are printed
next to the reference's and never gated, except the host allocation counts
below: they repeat from run to run on one toolchain, but the compiler and
the standard library may move them a little, so they are held one-sided, a
run failing only when it allocates more than SLACK above the reference.
"""
import json
import sys

EXACT = (
    "bench.sim_s",
    "gpu.launches",
    "gpu.h2d_bytes",
    "gpu.d2h_bytes",
    "lp.iters",
    "core.nodes",
    "lp.wave.supersteps",
    "lp.fo.supersteps",
    "parallel.messages",
    "parallel.steals",
    "serve.exact_hits",
    "serve.warm_hits",
)
CEILING = (
    "core.allocs_per_node",
    "core.alloc_bytes_per_node",
)
SLACK = 0.02
WALL = (
    "bench.pass_s",
    "core.node_us",
    "gpu.charge_ns",
    "lp.host.pivot_ns",
    "lp.device.pivot_ns",
    "lp.sparse.pivot_ns",
)


def read_run(path):
    """(workload, metrics) of one saved run: header line and result line."""
    with open(path) as f:
        lines = f.read().splitlines()
    header = dict(kv.split("=", 1) for kv in lines[0].split() if "=" in kv)
    result = json.loads(lines[-1])
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0):
        sys.exit(f"{path}: the run itself failed ({lines[-1][:120]}...)")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return header, metrics


def main():
    if len(sys.argv) < 4 or sys.argv[1] not in ("check", "write"):
        sys.exit(__doc__)
    mode, reference_path, runs = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "write":
        reference = {"settings": {"trace": "1", "seconds": "3", "seed": "3"}, "workloads": {}}
    else:
        with open(reference_path) as f:
            reference = json.load(f)
    settings, seen, differences, over = reference["settings"], set(), 0, 0
    for path in runs:
        header, metrics = read_run(path)
        workload = header["workload"]
        for key, want in settings.items():
            if header.get(key) != want:
                sys.exit(f"{path}: run with {key}={header.get(key)}, the reference is at {key}={want}")
        seen.add(workload)
        exact = {name: metrics[name] for name in EXACT}
        if mode == "write":
            reference["workloads"][workload] = exact | {name: metrics[name] for name in CEILING}
            continue
        pinned = reference["workloads"].get(workload)
        if pinned is None:
            sys.exit(f"{path}: workload {workload} has no committed reference")
        for name in EXACT:
            same = exact[name] == pinned[name]
            differences += not same
            print(f"{workload:13} {name:20} {exact[name]!r:>22}  {'=' if same else '!= ' + repr(pinned[name])}")
        for name in CEILING:
            got, cap = metrics[name], pinned[name]
            within = got <= cap * (1 + SLACK)
            over += not within
            verdict = "<=" if within else f"more than {100 * SLACK:.0f} % over"
            print(f"{workload:13} {name:20} {got!r:>22}  {verdict} {cap!r}")
        for name in WALL:
            print(f"{workload:13} {name:20} {metrics[name]!r:>22}  (wall-clock, not gated)")
    if mode == "write":
        with open(reference_path, "w") as f:
            json.dump(reference, f, indent=2, sort_keys=True)
            f.write("\n")
        return
    missing = sorted(set(reference["workloads"]) - seen)
    if missing:
        sys.exit(f"no run given for: {', '.join(missing)}")
    failures = []
    if differences:
        failures.append(f"{differences} exact column(s) differ from {reference_path}: the program's behaviour changed")
    if over:
        failures.append(f"{over} allocation count(s) more than {100 * SLACK:.0f} % over {reference_path}")
    if failures:
        sys.exit("\n".join(failures))


if __name__ == "__main__":
    main()
