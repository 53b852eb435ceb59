"""Bit-exact graph6 text codec.

One graph per line: size byte chr(n+63) for n <= 62, then the upper
triangle packed column-major (x(0,1), x(0,2), x(1,2), x(0,3), ...),
zero-padded to a multiple of 6, each 6-bit group emitted as
chr(value+63). That pair order is the bit order of
``Graph.upper_triangle_mask`` and of the masks that ``augment`` gives the
enumeration (bit j(j-1)/2 + i for the pair i < j), so each payload byte
holds the mask's next six bits, the first pair in the byte's high bit.
The optional ">>graph6<<" header is tolerated on input. Multi-byte sizes
(lead byte '~') are out of the supported range and are rejected with an
explicit message.

This module checks the record's framing (header, size byte, payload
length) and the encoder's cap; the kernels do the bits:
``triangle_graph6`` writes a record straight from a mask, and
``graph6_masks`` decodes a payload. Only when the kernel finds a byte
outside '?'..'~' does this module scan the payload again, to name that
byte's offset.
"""

from . import _kernels
from .graphs import Graph

HEADER = ">>graph6<<"
MAX_VERTICES = 62


class Graph6Error(ValueError):
    """Malformed graph6 input; ``msg`` is the message without the offset,
    ``offset`` the offending byte position."""

    def __init__(self, msg, offset):
        super().__init__(f"{msg} (byte offset {offset})")
        self.msg = msg
        self.offset = offset


def parse_graph6(text):
    """Decode one graph6 record (a single line) into a Graph."""
    line = text.rstrip("\r\n")
    base = 0
    if line.startswith(HEADER):
        line = line[len(HEADER):]
        base = len(HEADER)
    if not line:
        raise Graph6Error("empty graph6 record", base)
    size = ord(line[0])
    if size == 126:
        raise Graph6Error(
            "multi-byte vertex counts ('~' prefix) are not supported; "
            f"this codec is capped at n <= {MAX_VERTICES}", base)
    if not 63 <= size <= 125:
        raise Graph6Error(f"malformed size byte {line[0]!r}", base)
    n = size - 63
    need = (n * (n - 1) // 2 + 5) // 6
    payload = line[1:]
    if len(payload) < need:
        raise Graph6Error(
            f"record truncated: need {need} payload bytes, found {len(payload)}",
            base + len(line))
    if len(payload) > need:
        raise Graph6Error("trailing garbage after payload", base + 1 + need)
    masks = _kernels.graph6_masks(payload, n)
    if masks is None:
        pos, ch = next((pos, ch) for pos, ch in enumerate(payload)
                       if not "?" <= ch <= "~")
        raise Graph6Error(f"non-printable payload byte {ch!r}", base + 1 + pos)
    return Graph._from_masks(masks)


def encode_graph6(g):
    """Encode a Graph as a one-line graph6 record (no trailing newline)."""
    if g.n > MAX_VERTICES:
        raise ValueError(
            f"graph6 encoding is capped at n <= {MAX_VERTICES}, got n={g.n}")
    return _kernels.triangle_graph6(g.upper_triangle_mask(), g.n)
