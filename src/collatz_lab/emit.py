"""Serialization of results to JSON, CSV, DOT and plain text.

JSON carries every integer as a decimal string so consumers never face
precision loss on large orbit elements; field order is fixed.  CSV holds the
tabular heart of a result (trace steps, stats rows, report violations and
budget-exhausted inputs).
DOT exists only for trees.  All emitted bytes are deterministic functions of
the result object: wall-clock time is deliberately absent.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Callable

from collatz_lab.errors import ConfigurationError

if TYPE_CHECKING:
    from collatz_lab.reverse_tree import WZTree
    from collatz_lab.sequences import StatsTable, Trace
    from collatz_lab.verify import TheoremReport

FORMATS = ("json", "csv", "dot", "text")


def _s(value) -> str | None:
    return None if value is None else str(value)


def _trace_json(result: Trace) -> dict:
    return {
        "kind": result.kind,
        "start": _s(result.start),
        "elements": [str(x) for x in result.elements],
        "outcome": result.outcome.value,
        "stopping_time": _s(result.stopping_time),
    }


def _trace_csv(result: Trace):
    yield ("step", "value")
    yield from enumerate(result.elements)


def _trace_text(result: Trace) -> list[str]:
    lines = [
        f"kind {result.kind} from {result.start}: {result.outcome.value}",
        "elements: " + " ".join(str(x) for x in result.elements),
    ]
    if result.stopping_time is not None:
        lines.append(f"stopping time: {result.stopping_time}")
    return lines


def _report_json(result: TheoremReport) -> dict:
    return {
        "theorem_id": result.theorem_id,
        "lo": _s(result.lo),
        "hi": _s(result.hi),
        "checked": _s(result.checked),
        "violation_count": _s(result.violation_count),
        "violations": [
            {"input": _s(v.input), "detail": v.detail}
            for v in result.violations
        ],
        "budget_exhausted": [str(n) for n in result.budget_exhausted],
        "observational": result.observational,
    }


def _report_csv(result: TheoremReport):
    yield ("input", "detail")
    yield from result.violations
    for n in result.budget_exhausted:
        yield (n, "budget exhausted")


def _report_text(result: TheoremReport) -> list[str]:
    status = "OK" if result.violation_count == 0 else "VIOLATIONS"
    lines = [
        f"{result.theorem_id} over [{result.lo}, {result.hi}]: {status}",
        f"checked {result.checked}, violations {result.violation_count}, "
        f"budget-exhausted {len(result.budget_exhausted)}",
    ]
    if result.observational:
        lines.append("observational: findings are reported, not asserted")
    for v in result.violations:
        lines.append(f"  {v.input}: {v.detail}")
    if result.budget_exhausted:
        lines.append(
            "  exhausted: " + " ".join(str(n) for n in result.budget_exhausted)
        )
    return lines


def _stats_json(result: StatsTable) -> dict:
    return {
        "lo": _s(result.lo),
        "hi": _s(result.hi),
        "budget": _s(result.budget),
        "rows": [
            {
                "n": _s(r.n),
                "c_len": _s(r.c_len),
                "t_len": _s(r.t_len),
                "a_len": _s(r.a_len),
                "exhausted": r.exhausted,
            }
            for r in result.rows
        ],
    }


def _stats_csv(result: StatsTable):
    yield ("n", "c_len", "t_len", "a_len", "exhausted")
    for r in result.rows:
        yield (
            r.n,
            "" if r.c_len is None else r.c_len,
            "" if r.t_len is None else r.t_len,
            "" if r.a_len is None else r.a_len,
            "true" if r.exhausted else "false",
        )


def _stats_text(result: StatsTable) -> list[str]:
    lines = [f"orbit lengths over [{result.lo}, {result.hi}], budget {result.budget}"]
    for r in result.rows:
        flag = " (budget exhausted)" if r.exhausted else ""
        lines.append(f"  {r.n}: {r.c_len} {r.t_len} {r.a_len}{flag}")
    return lines


def _tree_json(result: WZTree) -> dict:
    return {
        "root": {"w": _s(result.root.w), "z": _s(result.root.z)},
        "candidate_bound": _s(result.candidate_bound),
        "depth_bound": _s(result.depth_bound),
        "nodes": [
            {
                "w": _s(node.w),
                "z": _s(node.z),
                "depth": _s(result.depths[node.w]),
                "children": [
                    str(c) for c in result.children.get(node.w, ())
                ],
            }
            for node in result.nodes
        ],
        "orphans": [
            {"w": _s(o.w), "parent": _s(o.parent)} for o in result.orphans
        ],
    }


def _tree_dot(result: WZTree) -> list[str]:
    lines = ["digraph reverse_tree {"]
    for node in result.nodes:
        lines.append(f'  {node.w} [label="{node.w} ({node.z})"];')
    for node in result.nodes:
        parent = result.parents[node.w]
        if parent == node.w:
            # the root's trivial self-loop, drawn but visually set apart
            lines.append(f"  {node.w} -> {parent} [style=dashed, color=gray];")
        else:
            lines.append(f"  {node.w} -> {parent};")
    for orphan in result.orphans:
        lines.append(
            f'  {orphan.w} [label="{orphan.w}", style=dotted, '
            f'comment="parent {orphan.parent} outside tree"];'
        )
    lines.append("}")
    return lines


def _tree_text(result: WZTree) -> list[str]:
    lines = [
        f"reverse tree over first {result.candidate_bound} candidates, "
        f"depth bound {result.depth_bound}"
    ]
    for node in result.nodes:
        depth = result.depths[node.w]
        kids = result.children.get(node.w, ())
        kid_text = " ".join(str(c) for c in kids) if kids else "-"
        lines.append(f"  {'  ' * depth}{node.w} (z={node.z}) children: {kid_text}")
    if result.orphans:
        lines.append(
            "orphans: "
            + " ".join(f"{o.w}->{o.parent}" for o in result.orphans)
        )
    return lines


#: Per result class name, the formats it can be written in, "text" first:
#: json builds a dict, csv yields the header row and then the data rows, text
#: and dot return lines.  DOT exists only for trees and CSV for all but trees.
#: Keyed by name so that emit imports none of the result modules.
_WRITERS: dict[str, dict[str, Callable]] = {
    "Trace": {"text": _trace_text, "json": _trace_json, "csv": _trace_csv},
    "TheoremReport": {"text": _report_text, "json": _report_json, "csv": _report_csv},
    "StatsTable": {"text": _stats_text, "json": _stats_json, "csv": _stats_csv},
    "WZTree": {"text": _tree_text, "json": _tree_json, "dot": _tree_dot},
}


def formats(result_type: type) -> tuple[str, ...]:
    """The formats a result type can be written in, "text" first."""
    return tuple(_WRITERS[result_type.__name__])


def _writer(result, fmt: str) -> Callable:
    name = type(result).__name__
    by_format = _WRITERS.get(name)
    if by_format is None:
        raise ConfigurationError(f"cannot serialize {name}")
    if fmt not in by_format:
        raise ConfigurationError(f"{fmt} format not valid for {name}")
    return by_format[fmt]


def to_jsonable(result) -> dict:
    """Fixed-field-order dict form of a result, integers as decimal strings."""
    return _writer(result, "json")(result)


#: Characters per JSON write: big enough that a megabyte of JSON takes about
#: sixteen writes, small enough that the document is never held as one string.
_JSON_BATCH = 1 << 16

_escape = json.encoder.encode_basestring_ascii


def _json_text(value, indent: str) -> str:
    """json.dumps(value, indent=2) of a dict, list, str, bool or None, its
    lines after the first indented by `indent` ("\n" and spaces)."""
    if type(value) is str:
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = indent + "  "
    if type(value) is dict:
        if not value:
            return "{}"
        items = [_escape(k) + ": " + _json_text(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if type(value) is list:
        if not value:
            return "[]"
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    raise TypeError(f"cannot write {type(value).__name__} as JSON")


def _write_json(out: dict, sink) -> None:
    """json.dump(out, sink, indent=2) and a newline, in writes of about
    _JSON_BATCH characters.

    The top-level dict and the lists and dicts directly inside it are walked
    item by item, so no piece held at once is bigger than one of their items
    (a stats row, a tree node, an orbit element); deeper values are encoded
    whole.  The stdlib encoder cannot do this fast: with indent set, Python
    3.11 runs its pure-Python iterencode.
    """
    batch: list[str] = []
    size = 0

    def put(text: str) -> None:
        nonlocal size
        batch.append(text)
        size += len(text)
        if size >= _JSON_BATCH:
            sink.write("".join(batch))
            batch.clear()
            size = 0

    def walk(value, indent: str, depth: int) -> None:
        if depth == 2 or type(value) not in (dict, list) or not value:
            put(_json_text(value, indent))
            return
        inner = indent + "  "
        if type(value) is dict:
            items = ((_escape(k) + ": ", v) for k, v in value.items())
            opener, closer = "{", "}"
        else:
            items = (("", v) for v in value)
            opener, closer = "[", "]"
        sep = opener + inner
        for key, v in items:
            put(sep + key)
            walk(v, inner, depth + 1)
            sep = "," + inner
        put(indent + closer)

    walk(out, "\n", 0)
    batch.append("\n")
    sink.write("".join(batch))


def emit(result, fmt: str, sink) -> None:
    """Write result to sink in the requested format."""
    if fmt not in FORMATS:
        raise ConfigurationError(f"unknown format {fmt!r}")
    out = _writer(result, fmt)(result)
    if fmt == "json":
        _write_json(out, sink)
    elif fmt == "csv":
        import csv

        csv.writer(sink, lineterminator="\n").writerows(out)
    else:
        sink.write("\n".join(out) + "\n")
