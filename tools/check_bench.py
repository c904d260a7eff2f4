#!/usr/bin/env python3
"""Validate BENCH_*.json artifacts emitted by the bench binaries.

Every bench that writes a JSON document carries one or more *gate*
fields — the booleans its own exit code is derived from — plus numeric
results CI archives. A refactor that breaks a JsonWriter call site (or
a gate that silently becomes NaN through a zero-division) should fail
the smoke job even when the binary's exit code still reads 0, so this
checker re-validates the artifacts from the outside:

  * the file parses as strict JSON (no NaN/Infinity literals anywhere);
  * the document's "bench" field selects a known schema;
  * every gate field for that schema is present, bool-typed and true;
  * every required field path exists and numeric leaves are finite.

A second mode compares two runs of the same bench (the regression-diff
rules shared with ssla_analyze --diff):

  * a gate that was true in the old run and false in the new one is a
    regression (fatal);
  * a path present in the old run but missing from the new one is fatal
    (schemas only grow);
  * a numeric value whose relative delta exceeds --max-delta percent
    (default 25) is reported but not fatal — benches are noisy;
  * array length changes and new-only fields are informational.

Usage: check_bench.py FILE [FILE...]
       check_bench.py --diff OLD.json NEW.json [--max-delta PCT]
Exit status: 0 when every artifact passes, 1 otherwise.
"""

import json
import math
import sys

# Per-bench schema: gate fields must be present, bool and True; the
# required paths must merely exist (with finite numeric leaves). A path
# component of "*" fans out over every element of a list, which must be
# non-empty.
SCHEMAS = {
    "serve_scale": {
        "gates": ["all_completed"],
        "required": [
            "results.*.full_handshakes",
            "results.*.elapsed_sec",
            "results.*.bulk_mb_per_sec",
            "metrics_overhead.overhead_ratio",
        ],
    },
    "serve_degradation": {
        "gates": ["all_accounted", "clean_baseline_ok"],
        # The results array mixes per-rate cells with per-mode summary
        # rows (monotone_goodput), so only the shared key is required.
        "required": [
            "results.*.pool_mode",
        ],
    },
    "kx_matrix": {
        # The kx bench gates via its exit code on wire identity per
        # cell; the artifact exposes the per-cell flag.
        "gates": [],
        "required": [
            "cells.*.wire_identical",
            "cells.*.layers_kc.total",
        ],
    },
    "bn_backend": {
        "gates": [
            "gate.pass",
            "gate.rsa_identical",
            "gate.dh_identical",
            "gate.modexp_identical",
            "gate.bn64_faster",
        ],
        "required": [
            "cycle_hz",
            "modexp.*.bits",
            "modexp.*.bn32_ms",
            "modexp.*.bn64_ms",
            "modexp.*.speedup",
            "profiles.*.backend",
            "profiles.*.rows.*.function",
            "profiles.*.rows.*.pct",
        ],
    },
    "serve_overload": {
        "gates": [
            "gate.pass",
            "gate.adaptive_goodput_wins",
            "gate.no_hung_sessions",
            "gate.all_accounted",
        ],
        "required": [
            "rsa_op_ms",
            "abandon_ms",
            "results.*.policy",
            "results.*.goodput_per_sec",
            "results.*.goodput_fraction",
            "results.*.hs_p99_us",
            "results.*.wasted_work_fraction",
            "chaos.*.thread_restarts",
            "chaos.*.hung_sessions",
        ],
    },
    "serve_throughput": {
        "gates": [
            "gate.pass",
            "gate.wire_identical",
            "gate.steady_state_zero",
            "gate.engine_completed",
        ],
        "required": [
            "results.*.record_layer.records_per_sec",
            "results.*.record_layer.mb_per_sec",
            "results.*.serve_engine.records_per_sec_per_worker",
            "results.*.serve_engine.mb_per_sec_per_worker",
            "steady_state.*.scratch_grows",
            "steady_state.*.pending_spills",
            "wire_identity.*.identical",
        ],
    },
}


def resolve(doc, path):
    """Yield every value at dotted @p path, fanning out over '*'."""
    nodes = [doc]
    for part in path.split("."):
        nxt = []
        for node in nodes:
            if part == "*":
                if not isinstance(node, list) or not node:
                    raise KeyError(f"{path}: expected non-empty list")
                nxt.extend(node)
            else:
                if not isinstance(node, dict) or part not in node:
                    raise KeyError(f"{path}: missing '{part}'")
                nxt.append(node[part])
        nodes = nxt
    return nodes


def reject_nonfinite(value, where):
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{where}: non-finite number {value!r}")


def check_file(path):
    errors = []
    try:
        with open(path) as fh:
            # Strict parse: the C++ JsonWriter must never have emitted
            # a bare nan/inf token (json would accept NaN by default).
            doc = json.load(
                fh,
                parse_constant=lambda c: (_ for _ in ()).throw(
                    ValueError(f"non-finite literal {c}")
                ),
            )
    except (OSError, ValueError) as e:
        return [f"{path}: unreadable or invalid JSON: {e}"]

    bench = doc.get("bench")
    schema = SCHEMAS.get(bench)
    if schema is None:
        return [f"{path}: unknown bench id {bench!r}"]

    for gate in schema["gates"]:
        try:
            values = resolve(doc, gate)
        except KeyError as e:
            errors.append(f"{path}: gate {e}")
            continue
        for v in values:
            if not isinstance(v, bool):
                errors.append(
                    f"{path}: gate {gate} is {type(v).__name__}, "
                    "expected bool"
                )
            elif not v:
                errors.append(f"{path}: gate {gate} is false")

    for req in schema["required"]:
        try:
            for v in resolve(doc, req):
                reject_nonfinite(v, f"{path}: {req}")
        except (KeyError, ValueError) as e:
            errors.append(f"{path}: {e}")

    return errors


def diff_values(path, old, new, max_delta, lines):
    """Walk old/new in parallel; return (fatal, reported) counts."""
    fatal = reported = 0
    # bool before int/float: bool is an int subclass in Python.
    if isinstance(old, bool):
        if not isinstance(new, bool):
            reported += 1
            lines.append(f"CHANGED {path}: bool -> {type(new).__name__}")
        elif old and not new:
            fatal += 1
            lines.append(f"GATE REGRESSION {path}: true -> false")
        elif new and not old:
            reported += 1
            lines.append(f"improved {path}: false -> true")
    elif isinstance(old, (int, float)):
        if not isinstance(new, (int, float)) or isinstance(new, bool):
            reported += 1
            lines.append(
                f"CHANGED {path}: number -> {type(new).__name__}"
            )
        elif old != new:
            delta = (
                100.0 * (new - old) / abs(old) if old != 0
                else math.inf * (1 if new > 0 else -1)
            )
            if abs(delta) > max_delta:
                reported += 1
                lines.append(
                    f"DELTA {path}: {old} -> {new} ({delta:+.1f}%)"
                )
    elif isinstance(old, str):
        if old != new:
            reported += 1
            lines.append(f"changed {path}: {old!r} -> {new!r}")
    elif isinstance(old, list):
        if not isinstance(new, list):
            reported += 1
            lines.append(f"CHANGED {path}: list -> {type(new).__name__}")
            return fatal, reported
        if len(old) != len(new):
            reported += 1
            lines.append(
                f"length {path}: {len(old)} -> {len(new)} "
                "(comparing common prefix)"
            )
        for i in range(min(len(old), len(new))):
            f, r = diff_values(
                f"{path}[{i}]", old[i], new[i], max_delta, lines
            )
            fatal += f
            reported += r
    elif isinstance(old, dict):
        if not isinstance(new, dict):
            reported += 1
            lines.append(f"CHANGED {path}: dict -> {type(new).__name__}")
            return fatal, reported
        for key, val in old.items():
            sub = f"{path}.{key}" if path else key
            if key not in new:
                fatal += 1
                lines.append(
                    f"MISSING {sub}: present in old run, absent in new"
                )
                continue
            f, r = diff_values(sub, val, new[key], max_delta, lines)
            fatal += f
            reported += r
        for key in new:
            if key not in old:
                reported += 1
                lines.append(f"new field {path or '(root)'}.{key}")
    return fatal, reported


def diff_files(old_path, new_path, max_delta):
    try:
        with open(old_path) as fh:
            old = json.load(fh)
        with open(new_path) as fh:
            new = json.load(fh)
    except (OSError, ValueError) as e:
        print(f"FAIL unreadable or invalid JSON: {e}", file=sys.stderr)
        return 1
    lines = []
    fatal, reported = diff_values("", old, new, max_delta, lines)
    for line in lines:
        print(f"  {line}")
    verdict = "FAIL" if fatal else "OK"
    print(
        f"{verdict} diff {old_path} -> {new_path}: "
        f"fatal={fatal} reported={reported} threshold={max_delta:.1f}%"
    )
    return 1 if fatal else 0


def main(argv):
    if len(argv) >= 2 and argv[1] == "--diff":
        args = argv[2:]
        max_delta = 25.0
        if "--max-delta" in args:
            i = args.index("--max-delta")
            if i + 1 >= len(args):
                print("--max-delta needs a value", file=sys.stderr)
                return 2
            max_delta = float(args[i + 1])
            del args[i : i + 2]
        if len(args) != 2:
            print(__doc__.strip(), file=sys.stderr)
            return 2
        return diff_files(args[0], args[1], max_delta)
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        errors = check_file(path)
        if errors:
            failed = True
            for e in errors:
                print(f"FAIL {e}", file=sys.stderr)
        else:
            print(f"OK   {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
