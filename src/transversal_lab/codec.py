"""graph6 / digraph6 text encoding.

Bit layout follows the published format description exactly:

* N(n): for n <= 62 a single byte n+63; for 63 <= n <= 258047 the byte '~'
  followed by three bytes holding n in 18 big-endian bits; for larger n
  (up to 2^36 - 1) two '~' bytes followed by six bytes holding 36 bits.
* graph6: N(n) followed by the upper triangle of the adjacency matrix in
  column order (x_{0,1}, x_{0,2}, x_{1,2}, x_{0,3}, ...).
* digraph6: '&' then N(n) followed by all n*n adjacency bits in row-major
  order (bit i*n+j set iff arc i->j).

Both bodies are built as one string of '0'/'1' characters and packed by
`_pack` into 6-bit groups, zero-padded, each group + 63.  Column j of
graph6 is x_{0,j} .. x_{j-1,j}, which are the low j bits of row j read
from bit 0 upwards; row i of digraph6 is the n bits of out[i] read the
same way.  Each is one reversed `format(row, "0{w}b")`, and decoding
reads it back with one `int(chunk[::-1], 2)`.

Decoding accepts the optional ">>graph6<<" / ">>digraph6<<" headers and is
strict about length and padding.  An order written in a wider form than
it needs, such as "~??B" for 3, is malformed input, so each order has one
spelling; so is a digraph6 order above 128, more than a BitDigraph holds.
"""

from __future__ import annotations

from .errors import MalformedInput
from .graphs import DIGRAPH_MAX_ORDER, BitDigraph, UGraph, bits

_GRAPH6_HEADER = ">>graph6<<"
_DIGRAPH6_HEADER = ">>digraph6<<"
# str.translate table: each data byte to its 6 bits, high bit first
_SEXTETS = {v + 63: format(v, "06b") for v in range(64)}


def _encode_order(n: int) -> str:
    if n < 0:
        raise MalformedInput("negative order")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + _pack(format(n, "018b"))
    if n <= 68719476735:
        return "~~" + _pack(format(n, "036b"))
    raise MalformedInput(f"order {n} exceeds format range")


def _from_bytes(data: str) -> int:
    """The big-endian value of order bytes, 6 bits each."""
    n = 0
    for ch in data:
        v = ord(ch) - 63
        if not 0 <= v <= 63:
            raise MalformedInput(f"bad order byte {ch!r}")
        n = (n << 6) | v
    return n


def _decode_order(data: str) -> tuple[int, str]:
    """N(n) off the front of data: one byte, '~' and 3 bytes, or '~~' and
    6 bytes, the shortest form that holds n.  Returns n and the rest."""
    if not data:
        raise MalformedInput("empty input")
    start, width = (0, 1) if data[0] != "~" else (1, 3) if data[1:2] != "~" else (2, 6)
    if len(data) < start + width:
        raise MalformedInput(f"truncated {width}-byte order")
    n = _from_bytes(data[start : start + width])
    if n < (0, 63, 258048)[start]:  # the least order of each form
        raise MalformedInput(f"order {n} written in the {width}-byte form")
    return n, data[start + width :]


def _pack(body: str) -> str:
    body += "0" * (-len(body) % 6)
    return "".join(chr(int(body[i : i + 6], 2) + 63) for i in range(0, len(body), 6))


def _unpack(data: str, nbits: int) -> str:
    need = (nbits + 5) // 6
    if len(data) != need:
        raise MalformedInput(f"expected {need} data bytes, got {len(data)}")
    body = data.translate(_SEXTETS)
    if len(body) != 6 * need:  # a byte outside '?'..'~' stays one character
        bad = next(ch for ch in data if not "?" <= ch <= "~")
        raise MalformedInput(f"bad data byte {bad!r}")
    if "1" in body[nbits:]:
        raise MalformedInput("nonzero padding bits")
    return body[:nbits]


def encode_graph6(g: UGraph) -> str:
    body = "".join(format(g.adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, g.order))
    return _encode_order(g.order) + _pack(body)


def decode_graph6(line: str) -> UGraph:
    data = line.strip()
    if data.startswith(_GRAPH6_HEADER):
        data = data[len(_GRAPH6_HEADER) :]
    n, rest = _decode_order(data)
    body = _unpack(rest, n * (n - 1) // 2)
    adj = [0] * n
    for j in range(1, n):
        # column j starts after the j*(j-1)/2 bits of columns 1..j-1
        adj[j] = int(body[j * (j - 1) // 2 : j * (j + 1) // 2][::-1], 2)
        for i in bits(adj[j]):
            adj[i] |= 1 << j
    return UGraph(n, adj)


def encode_digraph6(d: BitDigraph) -> str:
    n = d.order
    return "&" + _encode_order(n) + _pack("".join(format(row, f"0{n}b")[::-1] for row in d.out))


def decode_digraph6(line: str) -> BitDigraph:
    data = line.strip()
    if data.startswith(_DIGRAPH6_HEADER):
        data = data[len(_DIGRAPH6_HEADER) :]
    if not data.startswith("&"):
        raise MalformedInput("digraph6 line must start with '&'")
    n, rest = _decode_order(data[1:])
    if n > DIGRAPH_MAX_ORDER:
        raise MalformedInput(f"digraph6 order {n} exceeds {DIGRAPH_MAX_ORDER}")
    body = _unpack(rest, n * n)
    out = [int(body[i * n : (i + 1) * n][::-1], 2) for i in range(n)]
    for i, row in enumerate(out):
        if (row >> i) & 1:
            raise MalformedInput(f"self-loop at vertex {i}")
    return BitDigraph(n, out)
