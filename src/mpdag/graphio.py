"""Reading and writing the shared edge-list text format, plus DOT export,
and reading linear-SCM files.

The format is one edge per line, UTF-8: ``X -> Y`` for a directed edge,
``X -- Y`` for an undirected one.  ``#`` starts a comment and blank lines are
ignored.  A node name is one non-whitespace token with no ``#`` in it; the
same rule holds for the names in an SCM file, so every graph read from one
can be written as an edge list.  A node appearing in no edge can be declared
on a line of its own.  Duplicate edge lines (any two lines touching the same
node pair) are an error.

Rendering is canonical: directed edges first, then undirected, each block
sorted lexicographically.  ``parse_graph(render_edge_list(g)) == g`` holds for
every valid graph whose node names are tokens of the format; the renderer
raises a :class:`GraphError` for any other.

Every reader turns malformed input, a file that is not UTF-8 included, into
a :class:`GraphError`, except an SCM file that is not JSON, which raises
:class:`json.JSONDecodeError`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Iterator

from .graphs import GraphError, PartiallyDirectedGraph
from .linear import LinearScm


class GraphParseError(GraphError):
    """Malformed graph text; carries the offending line number."""

    def __init__(self, message: str, line_no: int) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _is_node_name(value: Any) -> bool:
    """Is ``value`` a node name: a string that is one non-whitespace token
    with no ``#`` in it?"""
    return isinstance(value, str) and "#" not in value and value.split() == [value]


def _lines(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """``(line number, line, tokens)`` for each line of ``text`` that is not
    blank once its comment is cut; ``line`` is the cut line, stripped."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line, line.split()


def parse_graph(text: str) -> PartiallyDirectedGraph:
    nodes: set[str] = set()
    directed: list[tuple[str, str]] = []
    undirected: list[tuple[str, str]] = []
    seen_pairs: dict[frozenset[str], int] = {}
    for line_no, line, tokens in _lines(text):
        if len(tokens) == 1:
            nodes.add(tokens[0])
            continue
        if len(tokens) != 3 or tokens[1] not in ("->", "--"):
            raise GraphParseError(f"expected 'X -> Y' or 'X -- Y', got {line!r}", line_no)
        tail, op, head = tokens
        if tail == head:
            raise GraphParseError(f"self loop on {tail!r}", line_no)
        pair = frozenset((tail, head))
        if pair in seen_pairs:
            raise GraphParseError(
                f"duplicate edge between {tail!r} and {head!r}"
                f" (first on line {seen_pairs[pair]})",
                line_no,
            )
        seen_pairs[pair] = line_no
        nodes.update((tail, head))
        if op == "->":
            directed.append((tail, head))
        else:
            undirected.append((tail, head))
    return PartiallyDirectedGraph(nodes, directed, undirected)


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def load_graph(path: str | Path) -> PartiallyDirectedGraph:
    return parse_graph(_read_text(path))


def _isolated(g: PartiallyDirectedGraph) -> list[str]:
    """The nodes on no edge, in node order."""
    return [n for n, row in zip(g.nodes, g._masks.neighbours) if not row]


def render_edge_list(g: PartiallyDirectedGraph) -> str:
    """The edge-list text of ``g``; a :class:`GraphError` names the smallest
    node that is not a node name of the format."""
    bad = [n for n in g.nodes if not _is_node_name(n)]
    if bad:
        raise GraphError(f"node {bad[0]!r} is not a token of the edge-list format")
    lines = [*g.edge_lines(), *_isolated(g)]
    return "\n".join(lines) + ("\n" if lines else "")


def _dot_id(name: str) -> str:
    """``name`` as a quoted DOT ID.  Backslashes are doubled, so that one at
    the end cannot escape the closing quote, and quotes are escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_dot(g: PartiallyDirectedGraph, name: str = "g") -> str:
    """``g`` as a DOT digraph, an undirected edge as an edge without
    arrowheads (``dir=none``)."""
    lines = [f"digraph {name} {{"]
    lines += [f"  {_dot_id(n)};" for n in _isolated(g)]
    for pairs, attrs in ((g.sorted_directed(), ""), (g.sorted_undirected(), " [dir=none]")):
        lines += [f"  {_dot_id(u)} -> {_dot_id(v)}{attrs};" for u, v in pairs]
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_orientations(text: str) -> list[tuple[str, str]]:
    """Background-knowledge file: one ``X -> Y`` request per line, in order."""
    requests: list[tuple[str, str]] = []
    for line_no, line, tokens in _lines(text):
        if len(tokens) != 3 or tokens[1] != "->":
            raise GraphParseError(f"expected 'X -> Y', got {line!r}", line_no)
        request = (tokens[0], tokens[2])
        if request in requests:
            raise GraphParseError(f"duplicate request {line!r}", line_no)
        requests.append(request)
    return requests


def load_orientations(path: str | Path) -> list[tuple[str, str]]:
    return parse_orientations(_read_text(path))


def graph_to_json(g: PartiallyDirectedGraph) -> dict:
    return {
        "nodes": list(g.nodes),
        "directed": [list(e) for e in g.sorted_directed()],
        "undirected": [list(e) for e in g.sorted_undirected()],
    }


def _number(value: Any, where: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise GraphError(f"{where}: {value!r} is not a finite number")
    return number


def load_scm_file(path: str | Path) -> LinearScm:
    """Read a linear SCM from a JSON object with the keys ``edges``, a
    mapping from ``"A -> B"`` to the edge coefficient, and optionally
    ``noise``, a mapping from a node to its noise variance (1.0 if left out),
    and ``nodes``, a list of nodes in no edge.

    Node names follow the rule of graph files: one non-whitespace token with
    no ``#`` in it.  An edge key naming any other node, any other key, two
    keys naming one edge, a noise entry naming no node and a value that is
    not a finite number each raise a :class:`GraphError` that names the key.
    """
    data = json.loads(_read_text(path))
    if not isinstance(data, dict) or not isinstance(data.get("edges"), dict):
        raise GraphError("SCM file needs an 'edges' mapping")
    extra = sorted(data.keys() - {"edges", "noise", "nodes"})
    if extra:
        raise GraphError(f"unknown SCM key {extra[0]!r}")
    noise, nodes = data.get("noise", {}), data.get("nodes", [])
    if not isinstance(noise, dict):
        raise GraphError("SCM 'noise' must be a mapping")
    if not isinstance(nodes, list) or not all(map(_is_node_name, nodes)):
        raise GraphError("SCM 'nodes' must be a list of node names")
    keys: dict[tuple[str, ...], str] = {}
    for key in data["edges"]:
        edge = tuple(part.strip() for part in key.split("->"))
        if len(edge) != 2 or not all(map(_is_node_name, edge)):
            raise GraphError(f"bad SCM edge key {key!r}, expected 'A -> B'")
        if edge in keys:
            raise GraphError(f"SCM edge key {key!r} repeats {keys[edge]!r}")
        keys[edge] = key
    edges = {e: _number(data["edges"][k], f"SCM edge {k!r}") for e, k in keys.items()}
    dag = PartiallyDirectedGraph([*nodes, *(n for e in edges for n in e)], edges, ())
    unknown = sorted(noise.keys() - set(dag.nodes))
    if unknown:
        raise GraphError(f"SCM noise key {unknown[0]!r} names no node")
    variances = {n: _number(noise.get(n, 1.0), f"SCM noise {n!r}") for n in dag.nodes}
    return LinearScm(dag, edges, variances)
