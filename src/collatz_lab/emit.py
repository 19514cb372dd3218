"""Serialization of results to JSON, CSV, DOT and plain text.

JSON carries every integer as a decimal string so consumers never face
precision loss on large orbit elements.  Each result type has one fixed JSON
shape, written from one template, byte for byte what the standard library
writes at indent=2 for the result's field-ordered dict form.  CSV holds the
tabular heart of a result (trace steps, stats rows, report violations and
budget-exhausted inputs), byte for byte what `csv.writer` writes.
DOT exists only for trees.  Every format is written in batches of text
pieces, so no document is held whole.  All emitted bytes are deterministic
functions of the result object: wall-clock time is deliberately absent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from collatz_lab.errors import ConfigurationError

if TYPE_CHECKING:
    from collatz_lab.reverse_tree import WZTree
    from collatz_lab.sequences import StatsTable, Trace
    from collatz_lab.verify import TheoremReport

def _n(value: int | None) -> str:
    """An int as a JSON decimal string, None as null."""
    return "null" if value is None else f'"{value}"'


def _marks(indent: str) -> tuple[str, str, str]:
    """What opens, separates and closes a non-empty JSON list that opens on
    the line break and `indent`: each item on a line two spaces deeper."""
    inner = indent + "  "
    return "[" + inner, "," + inner, indent + "]"


def _items(pieces, indent: str = "\n  "):
    """A JSON list of written items, opening on the line break and `indent`."""
    sep, comma, closing = _marks(indent)
    for piece in pieces:
        yield sep + piece
        sep = comma
    yield "[]" if sep[0] == "[" else closing


# The JSON writers yield text pieces, one per item of a top-level list, and
# end on the document's newline.  kind and outcome come from TRACE_KINDS and
# Outcome, fixed ASCII strings that JSON writes as they are; only theorem ids
# and violation details need escaping.
def _trace_json(result: Trace):
    yield (f'{{\n  "kind": "{result.kind}",\n  "start": "{result.start}",\n'
           '  "elements": ')
    yield from _items(f'"{x}"' for x in result.elements)
    yield (f',\n  "outcome": "{result.outcome.value}",\n'
           f'  "stopping_time": {_n(result.stopping_time)}\n}}\n')


# The text, DOT and CSV writers yield one piece per line.
def _csv_field(text: str) -> str:
    """text as `csv.writer` writes a field: quoted, each quote doubled, when it
    holds a comma, a quote or a newline; a lone carriage return stays bare."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _trace_csv(result: Trace):
    yield "step,value\n"
    for step, value in enumerate(result.elements):
        yield f"{step},{value}\n"


def _spaced(label: str, items):
    """The line label + " " + " ".join(items), in one piece per item."""
    pieces = map(" {}".format, items)
    yield label + next(pieces, " ")
    yield from pieces
    yield "\n"


def _trace_text(result: Trace):
    yield f"kind {result.kind} from {result.start}: {result.outcome.value}\n"
    yield from _spaced("elements:", result.elements)
    if result.stopping_time is not None:
        yield f"stopping time: {result.stopping_time}\n"


def _esc(text: str) -> str:
    """text as a JSON string, as `json.dumps` writes it: in place when it is
    printable ASCII with no quote or backslash, so that `json` is loaded only
    for a string that needs escaping."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(text)


def _report_json(result: TheoremReport):
    yield (f'{{\n  "theorem_id": {_esc(result.theorem_id)},\n'
           f'  "lo": "{result.lo}",\n  "hi": "{result.hi}",\n'
           f'  "checked": "{result.checked}",\n'
           f'  "violation_count": "{result.violation_count}",\n  "violations": ')
    yield from _items(
        f'{{\n      "input": "{v.input}",\n      "detail": {_esc(v.detail)}\n    }}'
        for v in result.violations)
    yield ',\n  "budget_exhausted": '
    yield from _items(f'"{n}"' for n in result.budget_exhausted)
    yield f',\n  "observational": {"true" if result.observational else "false"}\n}}\n'


def _report_csv(result: TheoremReport):
    yield "input,detail\n"
    for v in result.violations:
        yield f"{v.input},{_csv_field(v.detail)}\n"
    for n in result.budget_exhausted:
        yield f"{n},budget exhausted\n"


def _report_text(result: TheoremReport):
    status = "OK" if result.violation_count == 0 else "VIOLATIONS"
    yield f"{result.theorem_id} over [{result.lo}, {result.hi}]: {status}\n"
    yield (f"checked {result.checked}, violations {result.violation_count}, "
           f"budget-exhausted {len(result.budget_exhausted)}\n")
    if result.observational:
        yield "observational: findings are reported, not asserted\n"
    for v in result.violations:
        yield f"  {v.input}: {v.detail}\n"
    if result.budget_exhausted:
        yield from _spaced("  exhausted:", result.budget_exhausted)


def _stats_json(result: StatsTable):
    yield (f'{{\n  "lo": "{result.lo}",\n  "hi": "{result.hi}",\n'
           f'  "budget": "{result.budget}",\n  "rows": ')
    yield from _items(
        f'{{\n      "n": "{r.n}",\n      "c_len": {_n(r.c_len)},\n'
        f'      "t_len": {_n(r.t_len)},\n      "a_len": {_n(r.a_len)},\n'
        f'      "exhausted": {"true" if r.exhausted else "false"}\n    }}'
        for r in result.rows)
    yield "\n}\n"


def _stats_csv(result: StatsTable):
    yield "n,c_len,t_len,a_len,exhausted\n"
    for r in result.rows:
        yield (f"{r.n},{'' if r.c_len is None else r.c_len},"
               f"{'' if r.t_len is None else r.t_len},{'' if r.a_len is None else r.a_len},"
               f"{'true' if r.exhausted else 'false'}\n")


def _stats_text(result: StatsTable):
    yield f"orbit lengths over [{result.lo}, {result.hi}], budget {result.budget}\n"
    for r in result.rows:
        flag = " (budget exhausted)" if r.exhausted else ""
        yield f"  {r.n}: {r.c_len} {r.t_len} {r.a_len}{flag}\n"


def _tree_json(result: WZTree):
    depths, children = result.depths, result.children
    yield (f'{{\n  "root": {{\n    "w": "{result.root.w}",\n'
           f'    "z": "{result.root.z}"\n  }},\n'
           f'  "candidate_bound": "{result.candidate_bound}",\n'
           f'  "depth_bound": "{result.depth_bound}",\n  "nodes": ')
    # Each node's children list is joined into the node's one piece, in the
    # layout `_items` writes one level deeper.
    opening, comma, closing = _marks("\n      ")
    comma = f'"{comma}"'
    yield from _items(
        f'{{\n      "w": "{w}",\n      "z": "{z}",\n'
        f'      "depth": "{depths[w]}",\n      "children": '
        + (f'{opening}"{comma.join(map(str, kids))}"{closing}'
           if (kids := children.get(w)) else "[]")
        + "\n    }"
        for w, z in result.nodes)
    yield ',\n  "orphans": '
    yield from _items(
        f'{{\n      "w": "{o.w}",\n      "parent": "{o.parent}"\n    }}'
        for o in result.orphans)
    yield "\n}\n"


def _tree_dot(result: WZTree):
    yield "digraph reverse_tree {\n"
    for node in result.nodes:
        yield f'  {node.w} [label="{node.w} ({node.z})"];\n'
    for node in result.nodes:
        parent = result.parents[node.w]
        if parent == node.w:
            # the root's trivial self-loop, drawn but visually set apart
            yield f"  {node.w} -> {parent} [style=dashed, color=gray];\n"
        else:
            yield f"  {node.w} -> {parent};\n"
    for orphan in result.orphans:
        yield (f'  {orphan.w} [label="{orphan.w}", style=dotted, '
               f'comment="parent {orphan.parent} outside tree"];\n')
    yield "}\n"


def _tree_text(result: WZTree):
    yield (f"reverse tree over first {result.candidate_bound} candidates, "
           f"depth bound {result.depth_bound}\n")
    for node in result.nodes:
        kid_text = " ".join(map(str, result.children.get(node.w, ()))) or "-"
        yield f"  {'  ' * result.depths[node.w]}{node.w} (z={node.z}) children: {kid_text}\n"
    if result.orphans:
        yield from _spaced("orphans:", (f"{o.w}->{o.parent}" for o in result.orphans))


#: Per result class name, the writer of each format it can be written in,
#: "text" first; every writer yields text pieces.  DOT exists only for trees
#: and CSV for all but trees.  Keyed by name so emit imports no result module.
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


#: Characters per write: big enough that a megabyte of text takes about
#: sixteen writes, small enough that the document is never held as one string.
_BATCH = 1 << 16


def emit(result, fmt: str, sink) -> None:
    """Write result to sink in the requested format."""
    batch: list[str] = []
    size = 0
    for piece in _writer(result, fmt)(result):
        batch.append(piece)
        size += len(piece)
        if size >= _BATCH:
            sink.write("".join(batch))
            batch.clear()
            size = 0
    sink.write("".join(batch))
