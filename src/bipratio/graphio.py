"""Text formats for graphs.

Edge list (normative for the command line):
    line 1:        "n m"
    lines 2..m+1:  "u v w" with 1 <= u, v <= n, u != v, integer w >= 1
Blank lines and lines starting with '#' are ignored.  Vertices are written
1-based on disk and shifted to 0-based indices in memory.

Vertex weights: a separate optional file with n lines, one positive integer
per line (comments and blanks ignored as above).
"""

from __future__ import annotations

from .errors import GraphFormatError
from .graph import WeightedGraph


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def loads_graph(text: str, weights_text: str | None = None) -> WeightedGraph:
    """Parse an edge-list string (and optional vertex-weight string)."""
    lines = list(_content_lines(text))
    if not lines:
        raise GraphFormatError("empty graph file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphFormatError(f"line {lineno}: header must be 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError(f"line {lineno}: header must hold two integers") from None
    if n < 1 or m < 0:
        raise GraphFormatError(f"line {lineno}: invalid header n={n} m={m}")
    if weights_text is None and n > 2 * m:
        # m edges touch at most 2m vertices, and default weights are degrees.
        raise GraphFormatError(
            f"line {lineno}: header n={n} m={m} leaves a vertex isolated; "
            "default vertex weights are degrees, so pass explicit vertex weights")
    body = lines[1:]
    if len(body) != m:
        raise GraphFormatError(f"header promises {m} edges, file holds {len(body)}")
    edges = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: edge line must be 'u v w', got {line!r}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: edge line must hold three integers") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphFormatError(f"line {lineno}: endpoint out of range 1..{n}")
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
        if w < 1:
            raise GraphFormatError(f"line {lineno}: weight must be >= 1, got {w}")
        edges.append((u - 1, v - 1, w))
    b = loads_vertex_weights(weights_text, n) if weights_text is not None else None
    try:
        return WeightedGraph(n, tuple(edges), b)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def loads_vertex_weights(text: str, n: int) -> tuple[int, ...]:
    """Parse a vertex-weight string (n positive integers, one per line)."""
    values = []
    for lineno, line in _content_lines(text):
        try:
            values.append(int(line))
        except ValueError:
            raise GraphFormatError(f"line {lineno}: vertex weight must be an integer") from None
    if len(values) != n:
        raise GraphFormatError(f"need {n} vertex weights, file holds {len(values)}")
    if min(values) < 1:
        raise GraphFormatError("vertex weights must be positive")
    return tuple(values)


def load_graph(path: str, weights_path: str | None = None) -> WeightedGraph:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    weights_text = None
    if weights_path is not None:
        with open(weights_path, encoding="utf-8") as fh:
            weights_text = fh.read()
    return loads_graph(text, weights_text)


def dumps_graph(G: WeightedGraph) -> str:
    """Render a graph in the edge-list format (1-based endpoints)."""
    out = [f"{G.n} {G.m}"]
    for u, v, w in G.edges:
        out.append(f"{u + 1} {v + 1} {w}")
    return "\n".join(out) + "\n"


def dump_graph(G: WeightedGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_graph(G))
