"""graph6 codec: hand-encoded vectors, round trips, and an independent
cross-check against networkx's codec."""

import networkx as nx
import pytest

from forcing_lab import (Graph, Graph6Error, complete, complete_bipartite,
                         cycle, encode_graph6, parse_graph6, path, star)
from forcing_lab.enumeration import enumerate_connected


# Hand-encoded vectors: size byte chr(n+63); payload packs x(0,1), x(0,2),
# x(1,2), ... six bits per byte, zero-padded, +63.
def test_triangle_decodes_from_hand_encoding():
    # n=3 -> 'B'; bits 111 + pad 000 -> 0b111000 = 56 -> chr(119) = 'w'
    g = parse_graph6("Bw")
    assert g.n == 3
    assert g.edges() == [(0, 1), (0, 2), (1, 2)]


def test_path3_decodes_from_hand_encoding():
    # bits x(0,1)=1, x(0,2)=0, x(1,2)=1 -> 0b101000 = 40 -> chr(103) = 'g'
    g = parse_graph6("Bg")
    assert g.edges() == [(0, 1), (1, 2)]


def test_single_vertex():
    g = parse_graph6("@")
    assert g.n == 1 and g.edge_count() == 0
    assert encode_graph6(g) == "@"


def test_triangle_encodes_to_hand_encoding():
    assert encode_graph6(complete(3)) == "Bw"


def test_cycle4_round_trip():
    g = cycle(4)
    text = encode_graph6(g)
    assert parse_graph6(text) == g


def test_header_tolerated():
    assert parse_graph6(">>graph6<<Bw") == complete(3)


def test_trailing_newline_tolerated():
    assert parse_graph6("Bw\n") == complete(3)


@pytest.mark.parametrize("g", [
    complete(1), complete(2), complete(5), cycle(3), cycle(7),
    path(6), star(4), complete_bipartite(2, 3), complete_bipartite(4, 4),
    Graph(0), Graph(4, [(0, 2), (1, 3)]),
])
def test_round_trip_families(g):
    assert parse_graph6(encode_graph6(g)) == g


def test_round_trip_every_enumerated_graph():
    for n in range(1, 6):
        for line in enumerate_connected(n):
            assert encode_graph6(parse_graph6(line)) == line


def test_matches_networkx_codec():
    graphs = [complete(4), cycle(6), path(5), star(3),
              complete_bipartite(3, 3), Graph(5, [(0, 1), (2, 3), (3, 4)])]
    for g in graphs:
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert encode_graph6(g) == theirs
        back = nx.from_graph6_bytes(encode_graph6(g).encode())
        assert sorted(back.edges()) == g.edges()


def test_encode_rejects_oversized():
    with pytest.raises(ValueError, match="62"):
        encode_graph6(Graph(63))


def test_parse_rejects_multibyte_size():
    with pytest.raises(Graph6Error, match="multi-byte"):
        parse_graph6("~??~?????")


def test_parse_rejects_bad_size_byte():
    with pytest.raises(Graph6Error) as err:
        parse_graph6("\x1fw")
    assert err.value.offset == 0


def test_parse_rejects_truncated_payload():
    with pytest.raises(Graph6Error, match="truncated"):
        parse_graph6("D")  # n=5 needs 2 payload bytes


def test_parse_rejects_trailing_garbage():
    with pytest.raises(Graph6Error) as err:
        parse_graph6("Bwx")
    assert "trailing" in str(err.value)
    assert err.value.offset == 2


def test_parse_rejects_bad_payload_byte():
    with pytest.raises(Graph6Error) as err:
        parse_graph6("B!")
    assert err.value.offset == 1


def test_parse_rejects_empty():
    with pytest.raises(Graph6Error):
        parse_graph6("")

