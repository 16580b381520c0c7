"""File formats: graph6 for unsigned graphs and the line-oriented "sg1"
signed interchange format; weighing matrices have theirs in ``weighing``.

graph6 follows the published format definition bit-for-bit: a 6-bit size
field (with the 126-prefixed long forms), then the upper triangle packed
column-by-column into 6-bit groups, each offset by 63.  Parsers reject their
documented error classes and nothing else.
"""

from __future__ import annotations

import numpy as np

from .core import SignedGraph, UnderlyingGraph

__all__ = [
    "Graph6Error", "Graph6LengthError", "Graph6PaddingError", "Graph6ByteError",
    "SignedFormatError", "parse_graph6", "write_graph6", "parse_signed", "write_signed",
]


class Graph6Error(ValueError):
    pass


class Graph6LengthError(Graph6Error):
    """Size field malformed or byte count inconsistent with it."""


class Graph6PaddingError(Graph6Error):
    """Nonzero bits in the padding after the upper triangle."""


class Graph6ByteError(Graph6Error):
    """Byte outside the printable graph6 range 63..126."""


_HEADER = b">>graph6<<"


def parse_graph6(data: bytes | str) -> UnderlyingGraph:
    if isinstance(data, str):
        if not data.isascii():
            raise Graph6ByteError("non-ASCII character in graph6 text")
        data = data.encode("ascii")
    data = data.strip()
    if data.startswith(_HEADER):
        data = data[len(_HEADER):]
    if not data:
        raise Graph6LengthError("empty graph6 input")
    raw = np.frombuffer(data, dtype=np.uint8)
    bad = np.flatnonzero((raw < 63) | (raw > 126))
    if bad.size:
        raise Graph6ByteError(
            f"byte {raw[bad[0]]} outside printable range 63..126")
    n, body = _read_size(data)
    if n == 0:
        raise Graph6LengthError("order 0: a graph needs at least one vertex")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) != nbytes:
        raise Graph6LengthError(
            f"expected {nbytes} data bytes for n={n}, got {len(body)}")
    # six data bits per byte, most significant first
    values = np.frombuffer(body, dtype=np.uint8) - 63
    bits = np.unpackbits(values[:, None], axis=1)[:, 2:].ravel()
    if bits[nbits:].any():
        raise Graph6PaddingError("padding bits after the triangle must be zero")
    adj = np.zeros((n, n), dtype=np.int8)
    # the upper triangle column by column is the lower one row by row
    adj[np.tri(n, k=-1, dtype=bool)] = bits[:nbits]
    return UnderlyingGraph(adj | adj.T)


def _read_size(data: bytes) -> tuple[int, bytes]:
    if data[0] != 126:
        return data[0] - 63, data[1:]
    if len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise Graph6LengthError("truncated 3-byte size field")
        n = _unpack_big(data[1:4])
        if n < 63:
            raise Graph6LengthError("long size field used for a small order")
        return n, data[4:]
    if len(data) < 8:
        raise Graph6LengthError("truncated 6-byte size field")
    n = _unpack_big(data[2:8])
    if n < 258048:
        raise Graph6LengthError("very long size field used for a small order")
    return n, data[8:]


def _unpack_big(chunk: bytes) -> int:
    value = 0
    for byte in chunk:
        value = (value << 6) | (byte - 63)
    return value


def write_graph6(g: UnderlyingGraph | SignedGraph) -> bytes:
    adj = np.asarray(g.adj)
    n = adj.shape[0]
    if n <= 62:
        head = bytes([n + 63])
    elif n <= 258047:
        head = bytes([126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    else:
        raise ValueError("orders above 258047 are not supported")
    # the upper triangle column by column is the lower one row by row
    lower = adj[np.tri(n, k=-1, dtype=bool)] != 0
    groups = np.zeros((-(-lower.size // 6), 6), dtype=np.uint8)
    groups.flat[:lower.size] = lower
    # packbits fills each six-bit group out to a byte with two low zero bits
    body = (np.packbits(groups, axis=1) >> 2) + 63
    return head + body.tobytes()


class SignedFormatError(ValueError):
    pass


def parse_signed(text: str) -> SignedGraph:
    """Parse the "sg1 n" header plus one "u v +|-" line per edge."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SignedFormatError("empty input")
    head = lines[0].split()
    # ASCII digits only: str.isdigit also accepts "²", which int() refuses
    if (len(head) != 2 or head[0] != "sg1"
            or not (head[1].isascii() and head[1].isdigit())):
        raise SignedFormatError(f"header must be 'sg1 n', got {lines[0]!r}")
    n = int(head[1])
    if n < 1:
        raise SignedFormatError("vertex count must be positive")
    seen: set[tuple[int, int]] = set()  # edges as (low, high)
    ends: list[int] = []  # low, high of each edge in turn
    signs: list[int] = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or parts[2] not in ("+", "-"):
            raise SignedFormatError(f"edge line must be 'u v +|-', got {ln!r}")
        a, b = parts[0], parts[1]
        # ASCII digits only, as in the header: int() also reads "١", "1_0"
        # and "+1"
        if not (a.isascii() and a.isdigit() and b.isascii() and b.isdigit()):
            raise SignedFormatError(f"bad vertex index in {ln!r}")
        u, v = int(a), int(b)
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise SignedFormatError(f"vertex out of range in {ln!r}")
        pair = (u, v) if u < v else (v, u)
        if pair in seen:
            raise SignedFormatError(f"duplicate edge ({u}, {v})")
        seen.add(pair)
        ends += pair
        signs.append(1 if parts[2] == "+" else -1)
    adj = np.zeros((n, n), dtype=np.int8)
    low, high = np.array(ends, dtype=np.intp).reshape(-1, 2).T
    adj[low, high] = adj[high, low] = np.array(signs, dtype=np.int8)
    return SignedGraph(adj)


def write_signed(g: SignedGraph) -> str:
    lines = [f"sg1 {g.n}"]
    for u, v, sign in g.edges():
        lines.append(f"{u} {v} {'+' if sign > 0 else '-'}")
    return "\n".join(lines) + "\n"
