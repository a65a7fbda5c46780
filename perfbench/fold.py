"""Folds a Chrome trace written by obs::Tracer into per-layer self time.

    python3 perfbench/fold.py trace.json

Two views come out of one trace:

* The thread table. Spans recorded by RAII guards nest properly on their
  thread (each carries its nesting depth). A span's self time is its
  duration minus the durations of its direct children on the same thread.
  Summed over all spans, self times equal the summed duration of the root
  spans, the "total": the time the traced threads spent inside any span.
  Rows are keyed by layer (see LAYERS) and by span name.

* The async overlay. A `ps.client.async` span runs from the moment an async
  PS op is issued to the moment its last response is parsed, and is
  recorded on whichever pool thread completed it, so it does not nest. Its
  self time is its duration minus the part of it covered by the server
  handlers (`ps.server` spans of the same op) that ran inside it. A handler
  span that lies inside several in-flight ops of the same kind is given to
  the most recently issued one. What remains is the client's own cost:
  fan-out, encoding, filters, decoding and future completion.
"""

import json
import statistics
import sys
from collections import defaultdict

# Span category -> layer. Categories starting with "bench." are the
# benchmark's own spans around its calls into each layer.
LAYERS = {
    "bench.data": "data",
    "bench.ps": "ps_setup",
    "bench.ml": "ml",
    "bench.serving": "serving",
    "dataflow": "dataflow",
    "dcv": "dcv",
    "ps.client": "ps_client",
    "ps.server": "ps_server",
}
ASYNC = "ps.client.async"
LAYER_NAMES = sorted(set(LAYERS.values())) + ["other"]
# Rows of the thread table must sum to the total within this share.
SUM_TOLERANCE = 1e-3


def _thread_table(events):
    """Self time per span, computed per thread from the nesting depths."""
    by_tid = defaultdict(list)
    for e in events:
        by_tid[e["tid"]].append(e)
    total = 0.0
    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], e["depth"]))
        stack = []
        for e in spans:
            e["self"] = e["dur"]
            e["children"] = []
            while stack and stack[-1]["depth"] >= e["depth"]:
                stack.pop()
            if stack:
                stack[-1]["self"] -= e["dur"]
                stack[-1]["children"].append(e)
            else:
                total += e["dur"]
            stack.append(e)
    return total


def _union_length(intervals):
    length, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        length += hi - max(lo, end)
        end = hi
    return length


def _async_self(async_spans, server_spans):
    """Self time per op of the async client spans, in µs."""
    by_op = defaultdict(list)
    for a in async_spans:
        by_op[a["name"]].append(a)
    handlers = defaultdict(list)
    for s in server_spans:
        handlers[s["name"]].append(s)
    out = {}
    for op, spans in by_op.items():
        spans.sort(key=lambda a: a["ts"])
        covered = defaultdict(list)
        active = []  # issued ops, latest issue last
        i = 0
        for s in sorted(handlers.get(op, []), key=lambda s: s["ts"]):
            while i < len(spans) and spans[i]["ts"] <= s["ts"]:
                active.append(spans[i])
                i += 1
            end = s["ts"] + s["dur"]
            active = [a for a in active if a["ts"] + a["dur"] >= s["ts"]]
            for a in reversed(active):
                if a["ts"] + a["dur"] >= end:
                    covered[id(a)].append((s["ts"], end))
                    break
        out[op] = sum(a["dur"] - _union_length(covered[id(a)])
                      for a in spans)
    return out


def _stage_stats(stages, tasks):
    """Barrier wait and task skew of every dataflow stage."""
    tasks = sorted(tasks, key=lambda t: t["ts"])
    barrier_us, skews, i = 0.0, [], 0
    for st in sorted(stages, key=lambda s: s["ts"]):
        end = st["ts"] + st["dur"]
        mine = []
        while i < len(tasks) and tasks[i]["ts"] <= end:
            if tasks[i]["ts"] >= st["ts"]:
                mine.append(tasks[i]["dur"])
            i += 1
        if not mine:
            continue
        # Post-stage hooks run inside the stage span on the coordinator; the
        # barrier is what is left of the stage once they and the slowest
        # task are taken out.
        hooks = sum(c["dur"] for c in st["children"]
                    if not c["name"].startswith("task:"))
        barrier_us += max(0.0, st["dur"] - hooks - max(mine))
        skews.append(max(mine) / (sum(mine) / len(mine)))
    return barrier_us, (statistics.median(skews) if skews else 0.0)


def fold(path):
    """Returns the per-layer figures of one trace file (times in ms)."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans, async_spans = [], []
    for e in events:
        rec = {"cat": e["cat"], "name": e["name"], "tid": e["tid"],
               "ts": e["ts"], "dur": e["dur"], "depth": e["args"]["depth"]}
        if e["cat"] == ASYNC:
            async_spans.append(rec)
        elif rec["depth"] >= 1:
            spans.append(rec)
    total_us = _thread_table(spans)

    layer_us = dict.fromkeys(LAYER_NAMES, 0.0)
    name_us = defaultdict(float)
    name_calls = defaultdict(int)
    for s in spans:
        layer = LAYERS.get(s["cat"], "other")
        layer_us[layer] += s["self"]
        key = s["cat"] + "." + s["name"].split(":")[0]
        name_us[key] += s["self"]
        name_calls[key] += 1

    stages = [s for s in spans if s["cat"] == "dataflow"
              and s["name"].startswith("stage:")]
    tasks = [s for s in spans if s["cat"] == "dataflow"
             and s["name"].startswith("task:")]
    barrier_us, skew = _stage_stats(stages, tasks)

    # Model allocation inside the trainers: from the start of each training
    # call to its first stage.
    prologue_us = 0.0
    for s in spans:
        if s["cat"] == "bench.ml":
            first = min((c["ts"] for c in stages if c["ts"] >= s["ts"]),
                        default=s["ts"])
            prologue_us += min(first, s["ts"] + s["dur"]) - s["ts"]

    server = [s for s in spans if s["cat"] == "ps.server"]
    busy_us, busy_calls = defaultdict(float), defaultdict(int)
    for s in server:
        busy_us[s["name"]] += s["dur"]
        busy_calls[s["name"]] += 1

    rows_sum = sum(layer_us.values())
    return {
        "total_ms": total_us / 1e3,
        "layer_self_ms": {k: v / 1e3 for k, v in layer_us.items()},
        "rows_sum_error": (abs(rows_sum - total_us) / total_us
                           if total_us else 0.0),
        "layer_coverage": ((rows_sum - layer_us["other"]) / total_us
                           if total_us else 0.0),
        "name_self_ms": {k: v / 1e3 for k, v in name_us.items()},
        "name_calls": dict(name_calls),
        "stages": len(stages),
        "task_self_ms": sum(t["self"] for t in tasks) / 1e3,
        "barrier_wait_ms": barrier_us / 1e3,
        "task_skew": skew,
        "trainer_prologue_ms": prologue_us / 1e3,
        "async_self_ms": {k: v / 1e3 for k, v in
                          _async_self(async_spans, server).items()},
        "server_busy_ms": {k: v / 1e3 for k, v in busy_us.items()},
        "server_calls": dict(busy_calls),
    }


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: fold.py TRACE.json", file=sys.stderr)
        return 2
    table = fold(argv[1])
    total = table["total_ms"]
    print(f"{'layer':<12} {'self ms':>12} {'share':>7}")
    for layer, ms in sorted(table["layer_self_ms"].items(),
                            key=lambda kv: -kv[1]):
        print(f"{layer:<12} {ms:12.1f} {ms / total:7.1%}")
    print(f"{'total':<12} {total:12.1f}  (rows off by "
          f"{table['rows_sum_error']:.2e}, tolerance {SUM_TOLERANCE:g})")
    print(f"\n{'span':<36} {'calls':>8} {'self ms':>12}")
    for key, ms in sorted(table["name_self_ms"].items(), key=lambda kv: -kv[1]):
        print(f"{key:<36} {table['name_calls'][key]:8d} {ms:12.1f}")
    print(f"\n{'async op':<24} {'client self ms':>15} {'server busy ms':>15}")
    for op, ms in sorted(table["async_self_ms"].items(), key=lambda kv: -kv[1]):
        print(f"{op:<24} {ms:15.1f} {table['server_busy_ms'].get(op, 0):15.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
