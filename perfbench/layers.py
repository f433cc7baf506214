"""Per-layer metrics derived from a traced phase.

Counts and times are per op of the traced phase unless the unit says
otherwise.  Set-up metrics (``diagram.build_standard.self_ms`` and
``notation.self_ms``) are totals over generating the inputs.  Memo
numbers are read off the calls kauffman makes into diagram:

- nodes visited = ``remove_curls`` calls made from kauffman;
- memo lookups = ``canonical_key`` calls made from kauffman;
- memo misses = ``_traversal_entries`` calls made from kauffman.

Every miss inserts one entry into the memo private to that
``lambda_poly`` call, so memo entries per op equal misses per op.
"""

from __future__ import annotations

import spans

WALK = ("diagram._traversal_entries", "diagram._self_crossing_signs", "diagram.components")
LAYERS = ("cli", "verify", "kauffman", "diagram", "notation", "bench")


def metrics(sp: spans.Spans, traced, plain) -> dict:
    """Metric name -> (value, unit) for a traced phase and its untraced twin."""
    summ = spans.summarize(sp, spans.self_times(sp))
    n = max(traced.ops, 1)
    calls: dict[str, int] = {}
    edge: dict[tuple[str, str], int] = {}
    self_ms: dict[str, float] = {}
    setup_ms: dict[str, float] = {}
    errors: dict[str, int] = {}
    for sid, (caller, name) in enumerate(sp.sites):
        calls[name] = calls.get(name, 0) + summ["calls"][sid]
        edge[caller, name] = edge.get((caller, name), 0) + summ["calls"][sid]
        self_ms[name] = self_ms.get(name, 0.0) + summ["self_ns"][sid] / 1e6
        setup_ms[name] = setup_ms.get(name, 0.0) + summ["setup_ns"][sid] / 1e6
        errors[name] = errors.get(name, 0) + sp.errors.get(sid, 0)

    def per_op_calls(name):
        return calls.get(name, 0) / n

    def per_op_ms(*names):
        return sum(self_ms.get(x, 0.0) for x in names) / n

    def layer_of(name):
        return name.split(".", 1)[0]

    lookups = edge.get(("kauffman", "diagram.canonical_key"), 0) / n
    misses = edge.get(("kauffman", "diagram._traversal_entries"), 0) / n
    hits = lookups - misses
    key_calls = calls.get("diagram.canonical_key", 0)
    laurent = [x for x in self_ms if x.startswith("kauffman.laurent.")]
    op_wall_ms = traced.op_time * 1e3 / n
    layer_self = {lay: sum(v for k, v in self_ms.items() if layer_of(k) == lay) / n
                  for lay in LAYERS}
    m = {
        "diagram.canonical_key.calls": (per_op_calls("diagram.canonical_key"), "count/op"),
        "diagram.canonical_key.self_ms": (per_op_ms("diagram.canonical_key"), "ms/op"),
        "diagram.canonical_key.us_per_call": (
            self_ms.get("diagram.canonical_key", 0.0) * 1e3 / key_calls if key_calls else 0.0,
            "us"),
        "kauffman.memo.lookups": (lookups, "count/op"),
        "kauffman.memo.hits": (hits, "count/op"),
        "kauffman.memo.misses": (misses, "count/op"),
        "kauffman.memo.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "kauffman.memo.entries": (misses, "count/op"),
        "kauffman.nodes": (edge.get(("kauffman", "diagram.remove_curls"), 0) / n, "count/op"),
        "diagram.smooth.self_ms": (per_op_ms("diagram.smooth"), "ms/op"),
        "diagram.rotate.self_ms": (per_op_ms("diagram._rotate_crossings"), "ms/op"),
        "diagram.walk.self_ms": (per_op_ms(*WALK), "ms/op"),
        "diagram.remove_curls.self_ms": (per_op_ms("diagram.remove_curls"), "ms/op"),
        "kauffman.recursion.self_ms": (
            per_op_ms("kauffman._lambda", "kauffman._resolve"), "ms/op"),
        "kauffman.laurent.add.calls": (per_op_calls("kauffman.laurent.add"), "count/op"),
        "kauffman.laurent.mul.calls": (per_op_calls("kauffman.laurent.mul"), "count/op"),
        "kauffman.laurent.shift.calls": (per_op_calls("kauffman.laurent.shift"), "count/op"),
        "kauffman.laurent.self_ms": (per_op_ms(*laurent), "ms/op"),
        "kauffman.lambda_poly.calls": (per_op_calls("kauffman.lambda_poly"), "count/op"),
        "kauffman.truncate.calls": (per_op_calls("kauffman.truncate"), "count/op"),
        "kauffman.truncate.self_ms": (per_op_ms("kauffman.truncate"), "ms/op"),
        "kauffman.truncate.errors": (errors.get("kauffman.truncate", 0), "count"),
        "verify.verify_code.calls": (per_op_calls("verify.verify_code"), "count/op"),
        "verify.verify_code.self_ms": (per_op_ms("verify.verify_code"), "ms/op"),
        "cli.main.self_ms": (per_op_ms("cli.main"), "ms/op"),
        "cli.main.nonzero_exits": (traced.nonzero_exits, "count"),
        "diagram.parse_pd.self_ms": (per_op_ms("diagram.parse_pd"), "ms/op"),
        "diagram.build_standard.self_ms": (setup_ms.get("diagram.build_standard", 0.0), "ms"),
        "notation.self_ms": (
            sum(v for k, v in setup_ms.items() if layer_of(k) == "notation"), "ms"),
    }
    for lay in LAYERS:
        m[f"layer.{lay}.self_ms"] = (layer_self[lay], "ms/op")
    m["trace.op_ms"] = (op_wall_ms, "ms/op")
    m["trace.layer_share"] = (
        sum(v for k, v in layer_self.items() if k != "bench") / op_wall_ms if op_wall_ms else 0.0,
        "ratio")
    m["trace.spans"] = (sum(summ["calls"]) / n, "count/op")
    m["trace.overhead_ratio"] = (plain.items_per_s / traced.items_per_s, "ratio")
    return m
