import random

import networkx as nx
import pytest

from transversal_lab.codec import (
    decode_digraph6,
    decode_graph6,
    encode_digraph6,
    encode_graph6,
)
from transversal_lab.errors import MalformedInput
from transversal_lab.graphs import BitDigraph, UGraph

from oracles import (
    reference_decode_digraph6,
    reference_decode_graph6,
    reference_encode_digraph6,
    reference_encode_graph6,
)


def random_graph(order, rng, p=0.5):
    edges = [
        (i, j)
        for i in range(order)
        for j in range(i + 1, order)
        if rng.random() < p
    ]
    return UGraph.from_edges(order, edges)


def random_digraph(order, rng, p=0.5):
    arcs = [
        (i, j)
        for i in range(order)
        for j in range(order)
        if i != j and rng.random() < p
    ]
    return BitDigraph.from_arcs(order, arcs)


def outcome(decode, line):
    """What decoding line gives: the decoded value, or MalformedInput."""
    try:
        return decode(line)
    except MalformedInput:
        return MalformedInput


class TestGraph6:
    def test_c5_round_trip(self):
        g = UGraph.cycle(5)
        assert decode_graph6(encode_graph6(g)) == g

    def test_empty_graph_order_0(self):
        g = UGraph.empty(0)
        line = encode_graph6(g)
        assert line == "?"
        assert decode_graph6(line) == g

    def test_against_networkx(self):
        rng = random.Random(101)
        for _ in range(150):
            g = random_graph(rng.randint(0, 20), rng, rng.random())
            h = nx.Graph()
            h.add_nodes_from(range(g.order))
            h.add_edges_from(g.edges())
            theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert encode_graph6(g) == theirs

    def test_decode_networkx_output(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_graph(rng.randint(1, 15), rng)
            h = nx.Graph()
            h.add_nodes_from(range(g.order))
            h.add_edges_from(g.edges())
            line = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert decode_graph6(line) == g

    def test_header_accepted(self):
        g = UGraph.cycle(5)
        assert decode_graph6(">>graph6<<" + encode_graph6(g)) == g

    def test_large_order_three_byte_form(self):
        g = UGraph.from_edges(100, [(0, 99)])
        line = encode_graph6(g)
        assert line.startswith("~")
        assert decode_graph6(line) == g

    def test_order_63_boundary(self):
        g = UGraph.empty(63)
        assert decode_graph6(encode_graph6(g)) == g
        assert encode_graph6(UGraph.empty(62))[0] == chr(62 + 63)

    def test_bad_length_rejected(self):
        with pytest.raises(MalformedInput):
            decode_graph6("D")  # order 5 needs data bytes

    def test_nonzero_padding_rejected(self):
        line = encode_graph6(UGraph.empty(3))
        corrupted = line[0] + chr(ord(line[1]) + 1)  # flips a padding bit
        with pytest.raises(MalformedInput):
            decode_graph6(corrupted)

    @pytest.mark.parametrize(
        "line, n", [("~??Bw", 3), ("~??}", 62), ("~~??????", 0), ("~~???}~~", 258047)]
    )
    def test_order_in_a_wider_form_is_malformed(self, line, n):
        # each line spells its order in a wider form than the order needs;
        # "~??Bw" is the complete graph "Bw" with its order so spelled
        with pytest.raises(MalformedInput, match=f"order {n} written in the"):
            decode_graph6(line)
        assert decode_graph6("Bw") == UGraph.complete(3)


class TestDigraph6:
    def test_directed_3_cycle_known_encoding(self):
        # row-major bits 010 001 100, packed into 6-bit groups: 17, 32
        d = BitDigraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert encode_digraph6(d) == "&BP_"
        assert decode_digraph6("&BP_") == d

    def test_header_accepted(self):
        d = BitDigraph.from_arcs(2, [(0, 1)])
        assert decode_digraph6(">>digraph6<<" + encode_digraph6(d)) == d

    def test_missing_ampersand(self):
        with pytest.raises(MalformedInput):
            decode_digraph6("BP_")

    def test_self_loop_rejected(self):
        # bits 100 000 000: vertex 0 loops to itself
        with pytest.raises(MalformedInput):
            decode_digraph6("&B_?")

    def test_order_above_128_is_malformed(self):
        # a well-formed line of order 129 (N(129) = "~?A@", zero body) names
        # its order; order 128 still decodes
        body = "?" * ((129 * 129 + 5) // 6)
        with pytest.raises(MalformedInput, match="order 129"):
            decode_digraph6("&~?A@" + body)
        assert decode_digraph6(encode_digraph6(BitDigraph(128, [0] * 128))).order == 128

    def test_order_in_a_wider_form_is_malformed(self):
        with pytest.raises(MalformedInput, match="order 3 written in the 3-byte form"):
            decode_digraph6("&~??BP_")
        with pytest.raises(MalformedInput, match="order 3 written in the 6-byte form"):
            decode_digraph6("&~~?????BP_")
        assert decode_digraph6("&BP_") == BitDigraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])

    def test_thousand_random_round_trips(self):
        rng = random.Random(2024)
        for _ in range(1000):
            d = random_digraph(rng.randint(0, 30), rng, rng.random())
            assert decode_digraph6(encode_digraph6(d)) == d

    def test_two_cycles_preserved(self):
        d = BitDigraph.from_arcs(4, [(0, 1), (1, 0), (2, 3)])
        back = decode_digraph6(encode_digraph6(d))
        assert back.has_arc(0, 1) and back.has_arc(1, 0)
        assert back.has_arc(2, 3) and not back.has_arc(3, 2)


class TestAgainstReference:
    """The codec against the one-entry-per-bit reference in oracles."""

    def test_encodings_match_on_orders_0_to_128(self):
        rng = random.Random(6363)
        for order in range(129):
            for p in (rng.random(), 1.0):
                g = random_graph(order, rng, p)
                line = encode_graph6(g)
                assert line == reference_encode_graph6(g)
                assert decode_graph6(line) == g
                d = random_digraph(order, rng, p)
                line = encode_digraph6(d)
                assert line == reference_encode_digraph6(d)
                assert decode_digraph6(line) == d

    def test_decoding_matches_on_every_order_form(self):
        # orders 0..130 in each of the three forms, with a zero body of the
        # right length: only the shortest form decodes, and no digraph6
        # order above 128
        forms = {
            1: lambda n: chr(n + 63),
            3: lambda n: "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0)),
            6: lambda n: "~~" + "".join(chr((n >> s & 63) + 63) for s in (30, 24, 18, 12, 6, 0)),
        }
        accepted = []
        for n in range(131):
            for width, form in forms.items():
                if width == 1 and n > 62:
                    continue
                for ours, theirs, prefix, nbits in (
                    (decode_graph6, reference_decode_graph6, "", n * (n - 1) // 2),
                    (decode_digraph6, reference_decode_digraph6, "&", n * n),
                ):
                    line = prefix + form(n) + "?" * ((nbits + 5) // 6)
                    got = outcome(ours, line)
                    assert got == outcome(theirs, line), line
                    if got is not MalformedInput:
                        accepted.append((prefix, n, width))
        assert accepted == [
            (prefix, n, 1 if n <= 62 else 3)
            for n in range(131)
            for prefix in ("", "&")
            if not (prefix and n > 128)
        ]

    def test_decoding_matches_on_random_lines(self):
        # lines near a valid encoding: an order byte or a three- or
        # six-byte order, a body of about the right length over the data
        # alphabet, sometimes with its padding cleared, a wrong byte, a
        # header or no '&'
        rng = random.Random(64)
        alphabet = [chr(c) for c in range(63, 127)]
        accepted = 0
        for _ in range(100_000):
            n = rng.randrange(13) if rng.random() < 0.98 else rng.randrange(60, 68)
            directed = rng.random() < 0.5
            nbits = n * n if directed else n * (n - 1) // 2
            order = rng.choice(
                [chr(n + 63)] * 6
                + ["~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0)),
                   "~~" + "".join(rng.choices(alphabet, k=6)), "~", "~~?"]
            )
            body = rng.choices(alphabet, k=max(0, (nbits + 5) // 6 + rng.choice([0] * 6 + [-1, 1])))
            if body and rng.random() < 0.5:
                pad = -nbits % 6
                body[-1] = chr(((ord(body[-1]) - 63) >> pad << pad) + 63)
            if body and rng.random() < 0.05:
                body[rng.randrange(len(body))] = rng.choice("&> !\x7fé")
            line = ("&" if directed != (rng.random() < 0.03) else "") + order + "".join(body)
            if rng.random() < 0.05:
                line = rng.choice([">>graph6<<", ">>digraph6<<", " "]) + line + "\n"
            for ours, theirs in (
                (decode_graph6, reference_decode_graph6),
                (decode_digraph6, reference_decode_digraph6),
            ):
                got, want = outcome(ours, line), outcome(theirs, line)
                assert got == want, line
                accepted += got is not MalformedInput
        # the lines exercise both the accepting and the refusing paths: of
        # the 200,000 decodes, 18,509 accept (a three-byte order below 63
        # is refused)
        assert accepted == 18_509

